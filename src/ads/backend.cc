#include "ads/backend.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "ads/serialize.h"
#include "ads/shard.h"

#if defined(__unix__) || defined(__APPLE__)
#define HIPADS_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define HIPADS_HAS_MMAP 0
#endif

namespace hipads {

AdsBackend::~AdsBackend() = default;

void AdsBackend::Prefetch(uint32_t /*r*/) const {}

// ---------------------------------------------------------------------------
// FlatAdsBackend
// ---------------------------------------------------------------------------

StatusOr<AdsArenaView> FlatAdsBackend::Range(uint32_t r) const {
  if (r != 0) {
    return Status::InvalidArgument("range " + std::to_string(r) +
                                   " out of bounds (1 range)");
  }
  const FlatAdsSet& s = set();
  AdsArenaView view;
  view.begin = 0;
  view.end = static_cast<NodeId>(s.num_nodes());
  view.offsets = s.offsets.data();
  view.entries = s.entries.data();
  if (s.has_hip()) {
    view.hip_tau = s.hip_tau.data();
    view.hip_weight = s.hip_weight.data();
  }
  return view;
}

StatusOr<AdsView> FlatAdsBackend::ViewOf(NodeId v) const {
  const FlatAdsSet& s = set();
  if (v >= s.num_nodes()) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  return s.of(v);
}

StatusOr<HipView> FlatAdsBackend::HipOf(NodeId v) const {
  const FlatAdsSet& s = set();
  if (v >= s.num_nodes()) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  if (!s.has_hip()) return HipView{};
  return HipView{s.hip_tau.data() + s.offsets[v],
                 s.hip_weight.data() + s.offsets[v]};
}

// ---------------------------------------------------------------------------
// MmapAdsSet
// ---------------------------------------------------------------------------

MmapAdsSet::MmapAdsSet() { AdoptFallback(); }

MmapAdsSet::MmapAdsSet(MmapAdsSet&& other) noexcept {
  *this = std::move(other);
}

MmapAdsSet& MmapAdsSet::operator=(MmapAdsSet&& other) noexcept {
  if (this == &other) return *this;
  Unmap();
  map_ = other.map_;
  map_len_ = other.map_len_;
  flavor_ = other.flavor_;
  k_ = other.k_;
  ranks_ = std::move(other.ranks_);
  num_nodes_ = other.num_nodes_;
  num_entries_ = other.num_entries_;
  // Vector moves keep their heap buffers, so fallback-aliasing pointers
  // survive the move unchanged; mapping pointers are position-independent.
  fallback_ = std::move(other.fallback_);
  offsets_ = other.offsets_;
  entries_ = other.entries_;
  hip_tau_ = other.hip_tau_;
  hip_weight_ = other.hip_weight_;
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.AdoptFallback();  // leaves `other` as a valid empty set
  return *this;
}

MmapAdsSet::~MmapAdsSet() { Unmap(); }

void MmapAdsSet::Unmap() {
#if HIPADS_HAS_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
}

void MmapAdsSet::AdoptFallback() {
  flavor_ = fallback_.flavor;
  k_ = fallback_.k;
  ranks_ = fallback_.ranks;
  num_nodes_ = fallback_.num_nodes();
  num_entries_ = fallback_.entries.size();
  offsets_ = fallback_.offsets.data();
  entries_ = fallback_.entries.data();
  hip_tau_ = fallback_.has_hip() ? fallback_.hip_tau.data() : nullptr;
  hip_weight_ = fallback_.has_hip() ? fallback_.hip_weight.data() : nullptr;
}

StatusOr<MmapAdsSet> MmapAdsSet::OpenFallback(
    const std::string& path, std::function<double(uint64_t)> beta) {
  auto loaded = ReadFlatAdsSetFile(path, std::move(beta));
  if (!loaded.ok()) return loaded.status();
  MmapAdsSet set;
  set.fallback_ = std::move(loaded).value();
  set.AdoptFallback();
  return set;
}

StatusOr<MmapAdsSet> MmapAdsSet::Open(const std::string& path,
                                      std::function<double(uint64_t)> beta) {
#if HIPADS_HAS_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  size_t len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    return Status::Corruption("empty ADS file " + path);
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    // mmap itself unavailable for this file (e.g. special filesystem):
    // degrade to the copying loader rather than failing the open.
    return OpenFallback(path, std::move(beta));
  }
#if defined(POSIX_MADV_WILLNEED)
  // Open validates the whole file immediately (checksum scan) and the
  // estimator sweeps then read the arena front to back, so ask the kernel
  // to read the mapping ahead instead of faulting page by page — this is
  // what makes a prefetch-thread mmap "load" actually pull the bytes in,
  // not just reserve address space. Advisory only: failure is harmless.
  (void)::posix_madvise(map, len, POSIX_MADV_WILLNEED);
#endif
  const char* data = static_cast<const char*>(map);
  if (!IsBinaryAdsData(std::string_view(data, std::min<size_t>(len, 8)))) {
    // v1 text (or not an ADS file at all): only the copying loader can
    // parse it; it also produces the proper error for garbage input.
    ::munmap(map, len);
    return OpenFallback(path, std::move(beta));
  }
  // The same two-step validator the copying readers run, over the mapping.
  // Corrupt v2 must fail loudly — re-parsing cannot fix a bad checksum.
  auto header = CheckAdsBinaryHeader(data, len);
  if (!header.ok()) {
    ::munmap(map, len);
    return header.status();
  }
  const AdsBinaryHeader& h = header.value();
  const AdsBinarySections sections = MappedAdsSections(h, data);
  auto canonical = CheckAdsBinarySections(h, sections);
  if (!canonical.ok()) {
    ::munmap(map, len);
    return canonical.status();
  }
  if (!canonical.value()) {
    // Valid file, but a zero-copy consumer cannot re-sort node blocks into
    // canonical order; the copying loader can.
    ::munmap(map, len);
    return OpenFallback(path, std::move(beta));
  }
  MmapAdsSet set;
  Status ranks_status = RanksFromStoredParams(h.rank_kind, h.seed, h.base,
                                              std::move(beta), &set.ranks_);
  if (!ranks_status.ok()) {
    ::munmap(map, len);
    return ranks_status;
  }
  set.map_ = map;
  set.map_len_ = len;
  set.flavor_ = h.flavor;
  set.k_ = h.k;
  set.num_nodes_ = h.num_nodes;
  set.num_entries_ = h.num_entries;
  set.offsets_ = sections.offsets;
  set.entries_ = sections.entries;
  set.hip_tau_ = sections.hip_tau;  // null when the file has no HIP section
  set.hip_weight_ = sections.hip_weight;
  return set;
#else
  return OpenFallback(path, std::move(beta));
#endif
}

StatusOr<AdsArenaView> MmapAdsSet::Range(uint32_t r) const {
  if (r != 0) {
    return Status::InvalidArgument("range " + std::to_string(r) +
                                   " out of bounds (1 range)");
  }
  AdsArenaView view;
  view.begin = 0;
  view.end = static_cast<NodeId>(num_nodes_);
  view.offsets = offsets_;
  view.entries = entries_;
  view.hip_tau = hip_tau_;
  view.hip_weight = hip_weight_;
  return view;
}

StatusOr<AdsView> MmapAdsSet::ViewOf(NodeId v) const {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  return AdsView({entries_ + offsets_[v], entries_ + offsets_[v + 1]});
}

StatusOr<HipView> MmapAdsSet::HipOf(NodeId v) const {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  if (hip_tau_ == nullptr) return HipView{};
  return HipView{hip_tau_ + offsets_[v], hip_weight_ + offsets_[v]};
}

// ---------------------------------------------------------------------------
// OpenAdsBackend
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<AdsBackend>> OpenAdsBackend(
    const std::string& path, const AdsBackendOptions& options) {
  if (IsShardedAdsPath(path)) {
    ShardedOptions sharded;
    sharded.beta = options.beta;
    sharded.max_resident = options.max_resident;
    sharded.prefetch = options.prefetch;
    sharded.prefetch_depth = options.prefetch_depth;
    sharded.use_mmap = options.mode == BackendMode::kMmap;
    auto opened = ShardedAdsSet::Open(path, sharded);
    if (!opened.ok()) return opened.status();
    auto set = std::make_unique<ShardedAdsSet>(std::move(opened).value());
    if (options.validate_files) {
      Status valid = set->ValidateFiles();
      if (!valid.ok()) return valid;
    }
    return std::unique_ptr<AdsBackend>(std::move(set));
  }
  if (options.mode == BackendMode::kMmap) {
    auto opened = MmapAdsSet::Open(path, options.beta);
    if (!opened.ok()) return opened.status();
    return std::unique_ptr<AdsBackend>(
        std::make_unique<MmapAdsSet>(std::move(opened).value()));
  }
  auto loaded = ReadFlatAdsSetFile(path, options.beta);
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<AdsBackend>(
      std::make_unique<FlatAdsBackend>(std::move(loaded).value()));
}

}  // namespace hipads
