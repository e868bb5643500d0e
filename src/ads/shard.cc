#include "ads/shard.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "util/annotations.h"
#include "util/metrics.h"
#include "util/mutex.h"

namespace hipads {

namespace {

constexpr char kManifestMagic[] = "hipads-shards-v1";
constexpr uint32_t kNoShard = std::numeric_limits<uint32_t>::max();

std::string ShardFileName(uint32_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05u.ads2", s);
  return buf;
}

// The manifest references shard files relative to its own directory.
std::string JoinPath(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

}  // namespace

// Everything needed to load and manifest-check one shard arena, copied out
// of the set at Open so the prefetch worker never touches the (movable)
// ShardedAdsSet object itself.
struct ShardedAdsSet::LoadContext {
  std::string dir;
  std::vector<ShardInfo> shards;
  SketchFlavor flavor = SketchFlavor::kBottomK;
  uint32_t k = 0;
  RankKind rank_kind = RankKind::kUniform;
  uint64_t seed = 0;
  double base = 0.0;
  bool use_mmap = false;
  std::function<double(uint64_t)> beta;

  // Shard-file loads performed through this context, whichever thread did
  // them. Per-context so tests can observe that a K-statistic fused sweep
  // costs exactly one load per shard; scrapes see the process total under
  // "ads.shard.loads".
  mutable std::atomic<uint64_t> num_loads{0};

  // Loads shard s (copying or mmap per use_mmap) and verifies it against
  // its manifest entry. Pure function of the context (the load counters
  // aside): safe to call from the prefetch worker and the consumer
  // concurrently (for different s).
  StatusOr<std::unique_ptr<AdsBackend>> Load(uint32_t s) const {
    static MetricCounter* loads =
        MetricsRegistry::Get().Counter("ads.shard.loads");
    num_loads.fetch_add(1, std::memory_order_relaxed);
    loads->Add();
    const ShardInfo& info = shards[s];
    std::string path = JoinPath(dir, info.file);
    std::unique_ptr<AdsBackend> arena;
    if (use_mmap) {
      auto opened = MmapAdsSet::Open(path, beta);
      if (!opened.ok()) return opened.status();
      arena = std::make_unique<MmapAdsSet>(std::move(opened).value());
    } else {
      auto loaded = ReadFlatAdsSetFile(path, beta);
      if (!loaded.ok()) return loaded.status();
      arena = std::make_unique<FlatAdsBackend>(std::move(loaded).value());
    }
    if (arena->flavor() != flavor || arena->k() != k ||
        arena->ranks().kind() != rank_kind ||
        arena->ranks().seed() != seed || arena->ranks().base() != base ||
        arena->num_nodes() != info.end - info.begin ||
        arena->TotalEntries() != info.num_entries) {
      return Status::Corruption("shard " + info.file +
                                " does not match its manifest entry");
    }
    return arena;
  }
};

// Single background worker with a queued request / multi-slot result
// pipeline. The consumer requests its lookahead window (Request) and
// later either takes a staged arena (Take) or, if the worker never got to
// it, loads synchronously. The number of staged arenas is bounded by the
// window size the caller requests (ShardedOptions::prefetch_depth). All
// member state is guarded by mu_; loads run unlocked.
class ShardedAdsSet::Prefetcher {
 public:
  explicit Prefetcher(std::shared_ptr<const LoadContext> ctx)
      : ctx_(std::move(ctx)), worker_([this] { Loop(); }) {}

  ~Prefetcher() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    worker_.join();
  }

  // Asks the worker to load `wanted` (the sweep's lookahead window, in
  // consumption order) in the background. The window replaces any pending
  // queue and drops staged arenas outside it — the sweep has moved past
  // them — so staged memory never exceeds the window size.
  void Request(const std::vector<uint32_t>& wanted) {
    {
      MutexLock lock(mu_);
      auto in_wanted = [&](uint32_t s) {
        return std::find(wanted.begin(), wanted.end(), s) != wanted.end();
      };
      for (auto it = staged_.begin(); it != staged_.end();) {
        it = in_wanted(it->first) ? std::next(it) : staged_.erase(it);
      }
      queue_.clear();
      for (uint32_t s : wanted) {
        if (s != loading_ && staged_.find(s) == staged_.end()) {
          queue_.push_back(s);
        }
      }
    }
    cv_.NotifyAll();
  }

  // Hands over shard s if this prefetcher was asked for it: waits for an
  // in-flight load of s, cancels a not-yet-started request. Returns
  // nullopt when s was never requested (caller loads synchronously).
  std::optional<StatusOr<std::unique_ptr<AdsBackend>>> Take(uint32_t s) {
    MutexLock lock(mu_);
    auto queued = std::find(queue_.begin(), queue_.end(), s);
    if (queued != queue_.end()) {
      queue_.erase(queued);
      return std::nullopt;
    }
    while (loading_ == s) cv_.Wait(mu_);
    auto staged = staged_.find(s);
    if (staged != staged_.end()) {
      auto result = std::move(staged->second);
      staged_.erase(staged);
      return result;
    }
    return std::nullopt;
  }

 private:
  // Alternates between holding mu_ (queue/stage bookkeeping) and dropping
  // it around the disk load. Written with explicit Lock/Unlock sections —
  // consistent at every loop boundary — so the thread-safety analysis can
  // verify the guarded accesses instead of giving up on a juggled
  // std::unique_lock.
  void Loop() {
    mu_.Lock();
    for (;;) {
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (stop_) break;
      uint32_t s = queue_.front();
      queue_.pop_front();
      loading_ = s;
      mu_.Unlock();
      auto loaded = ctx_->Load(s);  // unlocked: the slow part
      mu_.Lock();
      loading_ = kNoShard;
      staged_.emplace(s, std::move(loaded));
      cv_.NotifyAll();
    }
    mu_.Unlock();
  }

  std::shared_ptr<const LoadContext> ctx_;
  Mutex mu_;
  CondVar cv_;
  bool stop_ HIPADS_GUARDED_BY(mu_) = false;
  // Pending loads, in consumption order.
  std::deque<uint32_t> queue_ HIPADS_GUARDED_BY(mu_);
  uint32_t loading_ HIPADS_GUARDED_BY(mu_) = kNoShard;
  std::map<uint32_t, StatusOr<std::unique_ptr<AdsBackend>>> staged_
      HIPADS_GUARDED_BY(mu_);
  std::thread worker_;  // last member: starts after all state above exists
};

ShardedAdsSet::ShardedAdsSet() = default;
ShardedAdsSet::ShardedAdsSet(ShardedAdsSet&&) noexcept = default;
ShardedAdsSet& ShardedAdsSet::operator=(ShardedAdsSet&&) noexcept = default;
ShardedAdsSet::~ShardedAdsSet() = default;

bool IsShardedAdsPath(const std::string& path) {
  std::error_code ec;
  std::string manifest_path = path;
  if (std::filesystem::is_directory(path, ec)) {
    manifest_path = JoinPath(path, kShardManifestName);
  }
  std::ifstream f(manifest_path, std::ios::binary);
  std::string line;
  return f && std::getline(f, line) && line == kManifestMagic;
}

std::vector<NodeId> BalancedShardSplits(const FlatAdsSet& set,
                                        uint32_t num_shards) {
  uint64_t n = set.num_nodes();
  if (num_shards == 0) num_shards = 1;
  if (num_shards > n) num_shards = n == 0 ? 1 : static_cast<uint32_t>(n);
  std::vector<NodeId> begins{0};
  // Greedy walk over the CSR offsets: cut whenever the running shard holds
  // its proportional share of the remaining entries. Every shard gets at
  // least one node, so there are never empty shards.
  uint64_t total = set.TotalEntries();
  uint64_t done_entries = 0;
  for (uint32_t s = 1; s < num_shards; ++s) {
    uint64_t remaining_shards = num_shards - s + 1;
    uint64_t target =
        done_entries + (total - done_entries) / remaining_shards;
    NodeId v = begins.back();
    // Advance at least one node, then until the shard reaches its target
    // share — but leave enough nodes for the remaining shards.
    NodeId max_begin = static_cast<NodeId>(n - (num_shards - s));
    NodeId cut = v + 1;
    while (cut < max_begin && set.offsets[cut] < target) ++cut;
    begins.push_back(cut);
    done_entries = set.offsets[cut];
  }
  return begins;
}

Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          const std::vector<NodeId>& split_begins) {
  uint64_t n = set.num_nodes();
  if (split_begins.empty() || split_begins.front() != 0) {
    return Status::InvalidArgument("split_begins must start at node 0");
  }
  for (size_t s = 1; s < split_begins.size(); ++s) {
    if (split_begins[s] <= split_begins[s - 1] || split_begins[s] > n) {
      return Status::InvalidArgument(
          "split_begins must be strictly increasing and within the node "
          "range");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create shard directory " + dir + ": " +
                           ec.message());
  }

  std::vector<ShardInfo> shards;
  for (size_t s = 0; s < split_begins.size(); ++s) {
    ShardInfo info;
    info.begin = split_begins[s];
    info.end = s + 1 < split_begins.size()
                   ? split_begins[s + 1]
                   : static_cast<NodeId>(n);
    info.file = ShardFileName(static_cast<uint32_t>(s));

    // Straight from the parent arena: only the shard's offsets are rebased.
    info.num_entries = set.offsets[info.end] - set.offsets[info.begin];
    Status st = WriteAdsSetRangeFile(set, info.begin, info.end,
                                     JoinPath(dir, info.file));
    if (!st.ok()) return st;
    shards.push_back(std::move(info));
  }

  // Manifest last: its presence marks the directory complete.
  std::ostringstream os;
  os << kManifestMagic << '\n'
     << SerializeAdsParams(set.flavor, set.k, set.ranks, n);
  os << "shards " << shards.size() << '\n';
  for (const ShardInfo& info : shards) {
    os << "shard " << info.begin << ' ' << info.end << ' '
       << info.num_entries << ' ' << info.file << '\n';
  }
  std::string manifest_path = JoinPath(dir, kShardManifestName);
  std::ofstream f(manifest_path, std::ios::binary);
  if (!f) {
    return Status::IOError("cannot open " + manifest_path + " for writing");
  }
  f << os.str();
  // Close before reporting success: the manifest marks the directory
  // complete, so a write error that surfaces only at close must not pass.
  f.close();
  if (!f) return Status::IOError("write failed for " + manifest_path);
  return Status::Ok();
}

Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          uint32_t num_shards) {
  return WriteShardedAdsSet(set, dir, BalancedShardSplits(set, num_shards));
}

StatusOr<ShardedAdsSet> ShardedAdsSet::Open(const std::string& path,
                                            const ShardedOptions& options) {
  std::string manifest_path = path;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    manifest_path = JoinPath(path, kShardManifestName);
  }
  std::ifstream f(manifest_path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + manifest_path);

  std::string line;
  if (!std::getline(f, line) || line != kManifestMagic) {
    return Status::Corruption("missing hipads-shards-v1 manifest header");
  }
  ShardedAdsSet set;
  set.dir_ = std::filesystem::path(manifest_path).parent_path().string();
  set.max_resident_ = std::max(1u, options.max_resident);
  set.prefetch_depth_ = std::max(1u, options.prefetch_depth);
  Status st = ParseAdsParams(f, options.beta, &set.flavor_, &set.k_,
                             &set.ranks_, &set.num_nodes_);
  if (!st.ok()) return st;

  std::string word;
  uint64_t num_shards = 0;
  if (!(f >> word >> num_shards) || word != "shards" || num_shards == 0) {
    return Status::Corruption("bad shards line in manifest");
  }
  NodeId expect_begin = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    uint64_t begin, end;
    if (!(f >> word >> begin >> end >> info.num_entries >> info.file) ||
        word != "shard") {
      return Status::Corruption("bad shard line " + std::to_string(s));
    }
    if (begin != expect_begin || end < begin || end > set.num_nodes_) {
      return Status::Corruption(
          "shard ranges must tile [0, nodes) in order; bad range at shard " +
          std::to_string(s));
    }
    info.begin = static_cast<NodeId>(begin);
    info.end = static_cast<NodeId>(end);
    expect_begin = info.end;
    set.shards_.push_back(std::move(info));
  }
  if (expect_begin != set.num_nodes_) {
    return Status::Corruption("shard ranges do not cover all nodes");
  }
  if (f >> word) {
    return Status::Corruption("trailing garbage after shard table");
  }
  set.resident_.resize(set.shards_.size());
  set.last_used_.assign(set.shards_.size(), 0);

  auto ctx = std::make_shared<LoadContext>();
  ctx->dir = set.dir_;
  ctx->shards = set.shards_;
  ctx->flavor = set.flavor_;
  ctx->k = set.k_;
  ctx->rank_kind = set.ranks_.kind();
  ctx->seed = set.ranks_.seed();
  ctx->base = set.ranks_.base();
  ctx->use_mmap = options.use_mmap;
  ctx->beta = options.beta;
  set.load_ctx_ = std::move(ctx);
  if (options.prefetch) {
    set.prefetcher_ = std::make_unique<Prefetcher>(set.load_ctx_);
  }
  return set;
}

uint64_t ShardedAdsSet::TotalEntries() const {
  uint64_t total = 0;
  for (const ShardInfo& info : shards_) total += info.num_entries;
  return total;
}

uint32_t ShardedAdsSet::ShardOf(NodeId v) const {
  // Binary search over the range table: first shard with end > v.
  auto it = std::upper_bound(
      shards_.begin(), shards_.end(), v,
      [](NodeId node, const ShardInfo& info) { return node < info.end; });
  return static_cast<uint32_t>(it - shards_.begin());
}

Status ShardedAdsSet::ValidateFiles() const {
  for (const ShardInfo& info : shards_) {
    std::string path = JoinPath(dir_, info.file);
    std::error_code ec;
    uint64_t actual = std::filesystem::file_size(path, ec);
    if (ec) {
      return Status::IOError("manifest references missing shard file " +
                             path + ": " + ec.message());
    }
    uint64_t expected =
        AdsBinaryFileSize(info.end - info.begin, info.num_entries);
    // Exactly two sizes are valid per shard: the base v2 image or base +
    // the optional HIP section (shards may mix — the section is per-file).
    uint64_t expected_hip = expected + AdsHipSectionBytes(info.num_entries);
    if (actual != expected && actual != expected_hip) {
      return Status::Corruption(
          "shard file " + path + " is " + std::to_string(actual) +
          " bytes; manifest implies " + std::to_string(expected) + " or " +
          std::to_string(expected_hip) +
          (actual < expected ? " (truncated?)" : " (trailing data?)"));
    }
  }
  return Status::Ok();
}

bool ShardedAdsSet::HipResident() const {
  if (hip_resident_ < 0) {
    bool all = !shards_.empty();
    for (const ShardInfo& info : shards_) {
      std::error_code ec;
      uint64_t actual =
          std::filesystem::file_size(JoinPath(dir_, info.file), ec);
      if (ec ||
          actual != AdsBinaryFileSize(info.end - info.begin,
                                      info.num_entries) +
                        AdsHipSectionBytes(info.num_entries)) {
        all = false;
        break;
      }
    }
    hip_resident_ = all ? 1 : 0;
  }
  return hip_resident_ == 1;
}

void ShardedAdsSet::EvictFor(uint32_t installing) const {
  // Evict least-recently-used resident arenas until under budget (never
  // the arena being installed), keeping NumResident() <= max_resident_.
  // The range a caller is actively consuming is always its most recently
  // touched one, so LRU never picks it while max_resident >= 2; at
  // max_resident = 1 installing a new range invalidates the previous
  // range's views, exactly as documented.
  for (;;) {
    if (NumResident() < max_resident_) return;
    uint32_t victim = kNoShard;
    for (uint32_t i = 0; i < resident_.size(); ++i) {
      if (resident_[i] == nullptr || i == installing) continue;
      if (victim == kNoShard || last_used_[i] < last_used_[victim]) {
        victim = i;
      }
    }
    if (victim == kNoShard) return;  // only the installing arena is live
    static MetricCounter* evictions =
        MetricsRegistry::Get().Counter("ads.shard.evictions");
    evictions->Add();
    resident_[victim].reset();
  }
}

StatusOr<const AdsBackend*> ShardedAdsSet::Resident(uint32_t s) const {
  last_used_[s] = ++tick_;
  if (resident_[s] != nullptr) return resident_[s].get();

  std::optional<StatusOr<std::unique_ptr<AdsBackend>>> staged;
  if (prefetcher_ != nullptr) {
    staged = prefetcher_->Take(s);
    static MetricCounter* hits =
        MetricsRegistry::Get().Counter("ads.shard.prefetch_hits");
    static MetricCounter* misses =
        MetricsRegistry::Get().Counter("ads.shard.prefetch_misses");
    (staged.has_value() ? hits : misses)->Add();
  }
  StatusOr<std::unique_ptr<AdsBackend>> loaded =
      staged.has_value() ? std::move(*staged) : load_ctx_->Load(s);
  if (!loaded.ok()) return loaded.status();
  EvictFor(s);
  resident_[s] = std::move(loaded).value();
  return resident_[s].get();
}

StatusOr<AdsArenaView> ShardedAdsSet::Range(uint32_t r) const {
  if (r >= shards_.size()) {
    return Status::InvalidArgument("shard range " + std::to_string(r) +
                                   " out of bounds");
  }
  auto arena = Resident(r);
  if (!arena.ok()) return arena.status();
  auto view = arena.value()->Range(0);
  if (!view.ok()) return view.status();
  AdsArenaView out = view.value();
  out.begin = shards_[r].begin;
  out.end = shards_[r].end;
  return out;
}

StatusOr<AdsView> ShardedAdsSet::ViewOf(NodeId v) const {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  auto range = Range(ShardOf(v));
  if (!range.ok()) return range.status();
  return range.value().of_global(v);
}

StatusOr<HipView> ShardedAdsSet::HipOf(NodeId v) const {
  if (v >= num_nodes_) {
    return Status::InvalidArgument("node " + std::to_string(v) +
                                   " out of range");
  }
  auto range = Range(ShardOf(v));
  if (!range.ok()) return range.status();
  return range.value().hip_of_local(v - range.value().begin);
}

void ShardedAdsSet::Prefetch(uint32_t r) const {
  if (prefetcher_ == nullptr || r >= shards_.size()) return;
  // The hint names the next range a sweep will consume; widen it to the
  // configured lookahead window, skipping shards already resident.
  std::vector<uint32_t> wanted;
  uint64_t end = std::min<uint64_t>(
      shards_.size(), static_cast<uint64_t>(r) + prefetch_depth_);
  for (uint32_t s = r; s < end; ++s) {
    if (resident_[s] == nullptr) wanted.push_back(s);
  }
  if (!wanted.empty()) prefetcher_->Request(wanted);
}

uint64_t ShardedAdsSet::NumShardLoads() const {
  return load_ctx_ == nullptr
             ? 0
             : load_ctx_->num_loads.load(std::memory_order_relaxed);
}

uint32_t ShardedAdsSet::NumResident() const {
  uint32_t live = 0;
  for (const auto& p : resident_) {
    if (p != nullptr) ++live;
  }
  return live;
}

}  // namespace hipads
