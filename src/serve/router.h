// The scatter/gather front end of the distributed serving subsystem.
//
// A fleet manifest maps each serving process to the contiguous global node
// range it holds:
//
//   hipads-fleet-v1
//   nodes <N>
//   server <begin> <end> <address>
//   server <begin> <end> <address>
//   ...
//
// Ranges must be sorted, contiguous and end exactly at N — the same
// contiguous-range discipline the shard manifest enforces on disk, lifted
// to hosts. A root fleet starts at 0; a fleet whose first range starts at
// B > 0 describes a *sub-fleet* serving global nodes [B, N) — the form an
// inner router of a multi-level tree is configured with.
//
// FleetRouter connects to every server (any Channel transport: TCP for a
// real fleet, loopback for deterministic tests/benches), validates that
// the fleet's reported ranges and sketch parameters are coherent, and then
// serves the two request families:
//
//   * Sweeps — scatter: the serialized SweepPlan goes to every range
//     server concurrently; each runs ONE fused pass over its backend
//     (ads/sweep.h) and returns its collectors' partial states. Gather:
//     partials are absorbed in node order (never completion order); the
//     histogram's exact per-distance sums merge like the executor's slots
//     do — so every statistic is bitwise identical to a single-process
//     RunSweep over the same sketches, whatever the fleet layout,
//     transport, or per-server thread counts.
//   * Point queries — routed to the owning server by range; Jaccard pairs
//     that span two servers are evaluated by fetching both raw sketches
//     and running the same similarity estimator router-side. Batch frames
//     (PointBatch, coalesced callers) leave through one sender; an entry
//     the batch could not answer for good re-sends alone.
//
// RouterCore supplies a FleetRouter's answers to the request path every
// serving process shares (ServingCore, serve/server.h), so a router
// process is itself just another protocol endpoint serving its fleet's
// [node_begin, N), with the same deadline shed and the same request
// instruments under `router.*` names: clients cannot tell a router from a
// single big server, and routers stack on routers for multi-level fan-out
// — an outer manifest lists inner routers at their sub-fleet ranges
// (tested down to two levels in serve_test).

#ifndef HIPADS_SERVE_ROUTER_H_
#define HIPADS_SERVE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"

namespace hipads {

/// One fleet member: the global node range [begin, end) served at
/// `address`.
struct FleetEntry {
  std::string address;
  NodeId begin = 0;
  NodeId end = 0;
};

struct FleetManifest {
  uint64_t num_nodes = 0;
  std::vector<FleetEntry> servers;
};

/// Magic first line of a fleet manifest file.
inline constexpr char kFleetManifestMagic[] = "hipads-fleet-v1";

std::string SerializeFleetManifest(const FleetManifest& manifest);
StatusOr<FleetManifest> ParseFleetManifest(const std::string& text);
StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path);

/// Structural check: at least one server, ranges sorted, non-empty,
/// contiguous, ending exactly at num_nodes (starting at 0 for a root
/// fleet, or at any B >= 0 for a sub-fleet).
Status ValidateFleetManifest(const FleetManifest& manifest);

/// Opens the transport to one fleet address. The default TCP factory
/// parses "host:port"; tests install loopback factories.
using ChannelFactory =
    std::function<StatusOr<std::unique_ptr<Channel>>(const std::string&)>;
ChannelFactory TcpChannelFactory();
/// A TCP factory whose channels connect with the given socket options.
ChannelFactory TcpChannelFactory(const TcpChannelOptions& options);

/// Robustness policy of a FleetRouter. Defaults are production-shaped:
/// one retry, no hedging, no implicit deadline.
struct RouterOptions {
  /// Default per-request deadline applied when the caller passes none
  /// (and an upper bound when it does). 0 = none.
  uint64_t timeout_ms = 0;
  /// Transport-failure retry budget per request: total attempts are
  /// retries + 1. Only transport-shaped failures (IOError, Unavailable —
  /// dead connections, shed lookups) are retried; semantic errors and
  /// expired deadlines never are. Each retry reconnects the server's
  /// channel.
  uint32_t retries = 1;
  /// Hedge point requests: if the owner has not answered within
  /// hedge_delay_ms, race a second attempt over a FRESH connection to the
  /// same server and take whichever succeeds first. Ranges tile the node
  /// space uniquely, so the hedge targets the same owner — it defeats a
  /// stalled connection or a wedged worker thread, not a dead process.
  /// Both attempts compute the same bytes, so the winner is
  /// indistinguishable from an unhedged call.
  bool hedge = false;
  uint64_t hedge_delay_ms = 50;
  /// Jittered exponential backoff between retries: attempt a sleeps a
  /// deterministic value in [b/2, b] where b = min(backoff_base_ms << a,
  /// backoff_max_ms), hashed from (server, attempt) so a fleet-wide
  /// failure does not resynchronize every client into a retry stampede.
  uint64_t backoff_base_ms = 10;
  uint64_t backoff_max_ms = 1000;
  /// Same-server point-request coalescing across concurrent callers: with
  /// a window > 0 (and hedging off — the two policies are mutually
  /// exclusive), the first caller bound for a server becomes the batch
  /// leader, collects followers for up to this many microseconds (or until
  /// the batch holds 64 entries), and sends ONE kPointBatchRequest; per-entry
  /// results are handed back to each caller in arrival order. Answers are
  /// bitwise identical to uncoalesced calls; a caller whose entry comes
  /// back shed/failed falls back to its own single-request call, so the
  /// retry contract is unchanged. 0 disables coalescing. When 0, the
  /// HIPADS_COALESCE_WINDOW_US environment variable (read at Connect)
  /// supplies the window — CI's tsan lane runs the serving suites once
  /// without it and once with it, forcing the flush path on. Connect
  /// rejects a window above kMaxCoalesceWindowUs, and an environment value
  /// that is not a plain decimal integer.
  uint64_t coalesce_window_us = 0;
};

/// The longest coalescing window: one second. A caller parked longer than
/// that has waited out any point budget the window could save.
inline constexpr uint64_t kMaxCoalesceWindowUs = 1000000;

/// A connected fleet. Movable, not copyable.
class FleetRouter {
 public:
  /// An empty router (no fleet); the state StatusOr needs. Use Connect.
  FleetRouter() = default;

  /// Connects to every manifest entry and validates the fleet: each
  /// server's reported range must equal its manifest range, and every
  /// server must agree on k, flavor and rank sup. A dead or mismatched
  /// server fails the whole fleet here, before any query runs. The
  /// factory is retained for reconnects: a channel that fails a request
  /// is dropped and re-opened (with backoff) on the next attempt.
  static StatusOr<FleetRouter> Connect(FleetManifest manifest,
                                       const ChannelFactory& factory,
                                       const RouterOptions& options = {});

  /// The whole fleet as one server: its global range [node_begin, N), the
  /// summed entry count, and the sketch parameters every server agreed on.
  const ServerInfoMsg& info() const { return info_; }
  /// Exclusive end of the served global range (== the global node count
  /// for a root fleet).
  uint64_t num_nodes() const { return info_.node_end; }
  /// First global node this fleet serves (0 for a root fleet).
  uint64_t node_begin() const { return info_.node_begin; }
  uint64_t total_entries() const { return info_.total_entries; }
  size_t num_servers() const { return manifest_.servers.size(); }

  /// Scatters `request` to every range server, gathers the partial states
  /// and absorbs them into `collectors` (built by the caller from the same
  /// spec; Begin is called here). Bitwise identical to a single-process
  /// RunSweep over the same sketches. `deadline` bounds the whole
  /// scatter/gather (each hop receives the remaining budget); per-server
  /// failures are retried within the retry budget, and the final error
  /// names the failing server. On failure the collectors are left
  /// partially filled and must be discarded, never read.
  Status ExecuteSweep(const SweepRequestMsg& request,
                      const std::vector<SweepCollector*>& collectors,
                      const Deadline& deadline = Deadline());

  /// Routes a point request to the owning range server (retried, and —
  /// when options.hedge is set — hedged; see RouterOptions). Cross-server
  /// Jaccard pairs are computed router-side from fetched sketches.
  StatusOr<PointResponseMsg> Point(const PointRequestMsg& request,
                                   const Deadline& deadline = Deadline());

  /// N point requests in as few downstream frames as possible: grouped by
  /// owning server, each group sent as kPointBatchRequest frames (split at
  /// kMaxPointBatchEntries). Returns one entry per request in request
  /// order. Entries a batch frame cannot express — cross-server Jaccard
  /// pairs — and entries whose batched answer came back retryable take the
  /// single-request Point path instead, so every entry's bytes match what
  /// a lone Point call would have produced. The call itself never fails;
  /// per-request errors live in the entry statuses.
  std::vector<PointBatchResponseEntry> PointBatch(
      const std::vector<PointRequestMsg>& requests,
      const Deadline& deadline = Deadline());

  /// Scrapes the whole fleet: this process's ProcessStats (labeled
  /// "router") followed by every server's, gathered over the wire and
  /// relabeled with the server's manifest address (nested routers keep
  /// their own labels as an "address/label" suffix, so a stacked tree
  /// scrape stays unambiguous). Pass kStatsFlagTraceSpans to also drain
  /// every process's trace buffer. An unreachable server fails the
  /// scrape — a fleet operator must never mistake a partial snapshot for
  /// the whole fleet.
  StatusOr<StatsResponseMsg> Stats(uint32_t flags,
                                   const Deadline& deadline = Deadline());

 private:
  /// A fleet member's mutable connection state. The channel is held as a
  /// shared_ptr snapshot: requests copy the pointer under the slot mutex
  /// and call outside it, so one slow request never blocks another from
  /// reconnecting — it just ends up talking on a channel that has already
  /// been replaced (harmless: the call fails or succeeds on its own).
  struct ServerSlot {
    Mutex mu;
    std::shared_ptr<Channel> channel HIPADS_GUARDED_BY(mu);
  };

  /// One caller's parked request inside a coalescing batch. Lives on the
  /// caller's stack; the leader writes answer/done under the batcher mutex
  /// and the caller reads them back under it, so no field outlives its
  /// caller's wait.
  struct PendingPoint {
    const std::string* payload = nullptr;  // encoded single point request
    Deadline deadline;
    /// The batched answer, or nullopt for "re-send alone" (see
    /// SendPointBatch; a batch of one also re-sends alone): the caller then
    /// runs its own single-request CallServer, preserving the uncoalesced
    /// retry contract exactly.
    std::optional<PointBatchResponseEntry> answer;
    bool done = false;
  };

  /// Per-server coalescing state (leader/follower): the first caller to
  /// find no active leader becomes one, collects the queue for the flush
  /// window, and carries everyone's requests in one batch frame.
  struct PointBatcher {
    Mutex mu;
    CondVar cv;
    std::vector<PendingPoint*> queue HIPADS_GUARDED_BY(mu);
    bool leader_active HIPADS_GUARDED_BY(mu) = false;
  };

  /// Index of the fleet entry owning global node v, or an error.
  StatusOr<size_t> OwnerOf(uint64_t v) const;
  StatusOr<std::vector<AdsEntry>> FetchSketch(uint64_t node,
                                              const Deadline& deadline);

  /// The caller's deadline tightened by the router's default timeout.
  Deadline EffectiveDeadline(const Deadline& deadline) const;
  /// Current (or freshly reconnected) channel of server `idx`.
  StatusOr<std::shared_ptr<Channel>> ChannelFor(size_t idx);
  /// Drops a failed channel so the next attempt reconnects — only if the
  /// slot still holds this exact channel (a racing request may already
  /// have replaced it).
  void InvalidateChannel(size_t idx, const std::shared_ptr<Channel>& bad);
  /// One request to server `idx` with the full retry/backoff/reconnect
  /// policy. Transport errors come back naming the server's address.
  StatusOr<Frame> CallServer(size_t idx, MessageType type,
                             const std::string& payload,
                             MessageType expected_response,
                             const Deadline& deadline);
  /// A point call with the hedging race layered on top of CallServer.
  StatusOr<Frame> CallPoint(size_t idx, const std::string& payload,
                            const Deadline& deadline);
  /// The single-shot fresh-connection attempt a hedge runs.
  StatusOr<Frame> HedgeAttempt(size_t idx, const std::string& payload,
                               const Deadline& deadline);
  /// The one batch sender: `payloads` (encoded single point requests,
  /// all owned by server `idx`) go out as one kPointBatchRequest under the
  /// full retry policy. Returns one answer per payload — its response
  /// payload or its final semantic error — or nullopt for "re-send alone":
  /// the whole frame failed, or the entry came back retryable (a shed).
  std::vector<std::optional<PointBatchResponseEntry>> SendPointBatch(
      size_t idx, const std::vector<std::string>& payloads,
      const Deadline& deadline);
  /// The coalescing point path (coalesce_window_us > 0, hedge off): joins
  /// or leads the server's batch, then waits for its entry's answer.
  StatusOr<Frame> CallPointCoalesced(size_t idx, const std::string& payload,
                                     const Deadline& deadline);
  /// Leader side: sends every queued request through SendPointBatch
  /// (deadline = the members' minimum) and hands each member its answer.
  /// A one-entry batch sends no batch frame: its member re-sends alone.
  void ExecuteCoalescedBatch(size_t idx,
                             const std::vector<PendingPoint*>& batch);

  FleetManifest manifest_;
  ServerInfoMsg info_;  // built by Connect from the servers' handshakes
  std::vector<std::unique_ptr<ServerSlot>> slots_;  // parallel to servers
  std::vector<std::unique_ptr<PointBatcher>> batchers_;  // parallel to servers
  ChannelFactory factory_;
  RouterOptions options_;
};

/// The answers of a router process: info reports the whole fleet's
/// [node_begin, N); sweeps scatter/gather and respond with the merged
/// state as a single [node_begin, N) partial (collector partial states
/// are partition-independent, so the re-encoded merge is exactly what a
/// single server covering the whole range would have sent). Request
/// deadlines are re-anchored by ServingCore and propagated to the fleet.
/// Borrows the router, which must outlive the core.
class RouterCore : public ServingCore {
 public:
  explicit RouterCore(FleetRouter* router);

 private:
  std::string AnswerInfo() override;
  StatusOr<std::string> AnswerPoint(const PointRequestMsg& msg,
                                    const std::string& payload,
                                    const Deadline& deadline) override;
  StatusOr<std::string> AnswerPointBatch(const PointBatchRequestMsg& msg,
                                         const Deadline& deadline) override;
  StatusOr<std::string> AnswerSweep(const SweepRequestMsg& msg,
                                    const Deadline& deadline) override;
  StatusOr<std::string> AnswerStats(const StatsRequestMsg& msg,
                                    const Deadline& deadline) override;

  FleetRouter* router_;
};

}  // namespace hipads

#endif  // HIPADS_SERVE_ROUTER_H_
