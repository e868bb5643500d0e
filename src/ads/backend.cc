#include "ads/backend.h"

#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ads/serialize.h"
#include "ads/shard.h"

namespace hipads {

AdsBackend::~AdsBackend() = default;

void AdsBackend::Prefetch(uint32_t /*r*/) const {}

// ---------------------------------------------------------------------------
// The single-arena engines (FlatAdsBackend, MmapAdsSet) answer through one
// arena view: a single range, and per-node views into it.
// ---------------------------------------------------------------------------

namespace {

// The offsets of an arena with no nodes: what an empty MmapAdsSet serves.
constexpr uint64_t kNoOffsets[1] = {0};
constexpr AdsArenaView kEmptyArena{.offsets = kNoOffsets};

AdsArenaView ArenaOf(const FlatAdsSet& s) {
  AdsArenaView arena;
  arena.end = static_cast<NodeId>(s.num_nodes());
  arena.offsets = s.offsets.data();
  arena.entries = s.entries.data();
  arena.hip_tau = s.hip_tau.data();
  arena.hip_weight = s.hip_weight.data();
  return arena;
}

// What FlatAdsBackend answers for HIP weights it does not hold.
Status CheckHipWeights(const FlatAdsSet& s) {
  if (s.has_hip()) return Status::Ok();
  return Status::FailedPrecondition(
      "the in-memory set carries no HIP weights; run PrecomputeHipWeights "
      "on it before serving it");
}

StatusOr<AdsArenaView> RangeOf(const AdsArenaView& arena, uint32_t r) {
  if (r != 0) {
    return Status::InvalidArgument("range " + std::to_string(r) +
                                   " out of bounds (1 range)");
  }
  return arena;
}

Status CheckNode(const AdsArenaView& arena, NodeId v) {
  if (v >= arena.end) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  return Status::Ok();
}

StatusOr<AdsView> ViewIn(const AdsArenaView& arena, NodeId v) {
  Status s = CheckNode(arena, v);
  if (!s.ok()) return s;
  return arena.of_local(v);
}

StatusOr<HipView> HipIn(const AdsArenaView& arena, NodeId v) {
  Status s = CheckNode(arena, v);
  if (!s.ok()) return s;
  return arena.hip_of_local(v);
}

}  // namespace

StatusOr<AdsArenaView> FlatAdsBackend::Range(uint32_t r) const {
  Status weighted = CheckHipWeights(set());
  if (!weighted.ok()) return weighted;
  return RangeOf(ArenaOf(set()), r);
}

StatusOr<AdsView> FlatAdsBackend::ViewOf(NodeId v) const {
  return ViewIn(ArenaOf(set()), v);
}

StatusOr<HipView> FlatAdsBackend::HipOf(NodeId v) const {
  Status weighted = CheckHipWeights(set());
  if (!weighted.ok()) return weighted;
  return HipIn(ArenaOf(set()), v);
}

StatusOr<AdsArenaView> MmapAdsSet::Range(uint32_t r) const {
  return RangeOf(arena_, r);
}

StatusOr<AdsView> MmapAdsSet::ViewOf(NodeId v) const {
  return ViewIn(arena_, v);
}

StatusOr<HipView> MmapAdsSet::HipOf(NodeId v) const {
  return HipIn(arena_, v);
}

// ---------------------------------------------------------------------------
// MmapAdsSet
// ---------------------------------------------------------------------------

MmapAdsSet::MmapAdsSet() : arena_(kEmptyArena) {}

MmapAdsSet::MmapAdsSet(MmapAdsSet&& other) noexcept : MmapAdsSet() {
  *this = std::move(other);
}

MmapAdsSet& MmapAdsSet::operator=(MmapAdsSet&& other) noexcept {
  if (this == &other) return *this;
  Unmap();
  // The arena points into the mapping, which does not move.
  map_ = std::exchange(other.map_, nullptr);
  map_len_ = std::exchange(other.map_len_, 0);
  flavor_ = other.flavor_;
  k_ = other.k_;
  ranks_ = std::move(other.ranks_);
  hip_tau_ = std::move(other.hip_tau_);
  hip_weight_ = std::move(other.hip_weight_);
  arena_ = std::exchange(other.arena_, kEmptyArena);
  return *this;
}

MmapAdsSet::~MmapAdsSet() { Unmap(); }

void MmapAdsSet::Unmap() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = nullptr;
  map_len_ = 0;
  arena_ = kEmptyArena;
}

StatusOr<MmapAdsSet> MmapAdsSet::Open(const std::string& path,
                                      std::function<double(uint64_t)> beta) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    return Status::Corruption("empty ADS file " + path);
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return Status::IOError("cannot map " + path);
  // Open validates the whole file immediately (checksum scan) and the
  // estimator sweeps then read the arena front to back, so ask the kernel
  // to read the mapping ahead instead of faulting page by page — this is
  // what makes a prefetch-thread mmap "load" actually pull the bytes in,
  // not just reserve address space. Advisory only: failure is harmless.
  (void)::posix_madvise(map, len, POSIX_MADV_WILLNEED);
  MmapAdsSet set;  // owns the mapping from here: every failure unmaps it
  set.map_ = map;
  set.map_len_ = len;

  // The same two-step validator the copying readers run, over the mapping.
  const char* data = static_cast<const char*>(map);
  auto header = CheckAdsBinaryHeader(data, len);
  if (!header.ok()) return header.status();
  const AdsBinaryHeader& h = header.value();
  AdsBinarySections sections = MappedAdsSections(h, data);
  set.hip_weight_.resize(h.num_entries);
  sections.hip_weight = set.hip_weight_.data();
  Status valid = CheckAdsBinarySections(h, sections);
  if (!valid.ok()) return valid;
  Status ranks_status = RanksFromStoredParams(h.rank_kind, h.seed, h.base,
                                              std::move(beta), &set.ranks_);
  if (!ranks_status.ok()) return ranks_status;
  if (!h.has_hip) {
    set.hip_tau_.resize(h.num_entries);
    sections.hip_tau = set.hip_tau_.data();
    DeriveAdsHipWeights(h, sections, set.ranks_, set.hip_tau_.data(),
                        set.hip_weight_.data());
  }
  set.flavor_ = h.flavor;
  set.k_ = h.k;
  set.arena_.end = static_cast<NodeId>(h.num_nodes);
  set.arena_.offsets = sections.offsets;
  set.arena_.entries = sections.entries;
  set.arena_.hip_tau = sections.hip_tau;
  set.arena_.hip_weight = sections.hip_weight;
  return set;
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
    Status valid = set->ValidateFiles();
    if (!valid.ok()) return valid;
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
