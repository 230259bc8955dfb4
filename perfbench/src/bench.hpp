// Shared pieces of the perfbench driver: run options, the per-run report,
// wall-clock helpers, and the span recorder plus the pass-through host
// strategy that records spans around the enclave boundary from outside the
// program.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/strategy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Clock::time_point process_start;  // taken first thing in main()
};

/// What one run hands back to main(): operation counts, the global
/// correctness verdict, and every metric it computed by name.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);

/// Process peak resident set size (VmHWM) in MB.
double peak_rss_mb();

/// splitmix64: seeds every generated input from the run's --seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ----------------------------------------------------------------- spans

enum class SpanKind : std::uint8_t {
  kRound,      // one lockstep round, from one round boundary to the next
  kTick,       // the round boundary's tick ECALLs, up to the first delivery
  kDeliver,    // host → enclave delivery ECALL (open, handler, replies)
  kRoute,      // enclave → host → network route of one outbound blob
  kMulticast,  // TcpBus::multicast call
  kRecv,       // TcpBus receiver callback
  kCount
};

/// Spans kept in memory for one traced operation and folded into per-kind
/// inclusive and self time (a span minus its direct children) at the end.
/// One recorder per thread.
class SpanRecorder {
 public:
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = kNone;
    SpanKind kind = SpanKind::kRound;
  };
  struct Totals {
    std::uint64_t count = 0;
    double inclusive_s = 0;
    double self_s = 0;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::uint32_t begin(SpanKind kind) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, open_.empty() ? kNone : open_.back(), kind});
    open_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    spans_[id].end = now_ns();
    open_.pop_back();
  }
  /// Kind of the innermost open span, or kCount when none is open.
  [[nodiscard]] SpanKind top() const {
    return open_.empty() ? SpanKind::kCount : spans_[open_.back()].kind;
  }
  void end_top() { end(open_.back()); }
  void end_all() {
    while (!open_.empty()) end_top();
  }

  /// Folds the recorded spans into per-kind totals and clears them.
  std::vector<Totals> fold_and_clear();

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// A HostContext that forwards every call to the real host and records a
/// kDeliver span around deliver() (the ECALL) and a kRoute span around
/// forward() (the route onto the network). The wire size of each outbound
/// blob is tallied so unit costs can be taken at the run's median size.
class TracingContext final : public sgxp2p::adversary::HostContext {
 public:
  TracingContext(SpanRecorder& rec, std::vector<std::uint64_t>& wire_sizes)
      : rec_(rec), wire_sizes_(wire_sizes) {}

  void bind(HostContext& inner) { inner_ = &inner; }

  [[nodiscard]] sgxp2p::NodeId self() const override { return inner_->self(); }
  [[nodiscard]] sgxp2p::SimTime now() const override { return inner_->now(); }
  void forward(sgxp2p::NodeId to, sgxp2p::Bytes blob) override {
    const std::size_t size = blob.size();
    if (size < wire_sizes_.size()) ++wire_sizes_[size];
    const std::uint32_t s = rec_.begin(SpanKind::kRoute);
    inner_->forward(to, std::move(blob));
    rec_.end(s);
  }
  void deliver(sgxp2p::NodeId from, sgxp2p::Bytes blob) override {
    // The first delivery after a round boundary ends that boundary's ticks.
    if (rec_.top() == SpanKind::kTick) rec_.end_top();
    const std::uint32_t s = rec_.begin(SpanKind::kDeliver);
    inner_->deliver(from, std::move(blob));
    rec_.end(s);
  }
  void schedule_in(sgxp2p::SimDuration delay,
                   std::function<void()> fn) override {
    inner_->schedule_in(delay, std::move(fn));
  }
  [[nodiscard]] const std::vector<sgxp2p::NodeId>& colluders() const override {
    return inner_->colluders();
  }
  sgxp2p::Rng& rng() override { return inner_->rng(); }

 private:
  SpanRecorder& rec_;
  std::vector<std::uint64_t>& wire_sizes_;
  HostContext* inner_ = nullptr;
};

/// Wraps a host strategy (the honest one by default) so that everything it
/// does goes through a TracingContext. Behaviour is unchanged: the inner
/// strategy sees the same calls, the same RNG and the same blobs.
class TracedStrategy final : public sgxp2p::adversary::Strategy {
 public:
  TracedStrategy(std::unique_ptr<Strategy> inner, SpanRecorder& rec,
                 std::vector<std::uint64_t>& wire_sizes)
      : inner_(std::move(inner)), ctx_(rec, wire_sizes) {}

  void on_send(sgxp2p::adversary::HostContext& ctx, sgxp2p::NodeId to,
               sgxp2p::Bytes blob) override {
    ctx_.bind(ctx);
    inner_->on_send(ctx_, to, std::move(blob));
  }
  void on_receive(sgxp2p::adversary::HostContext& ctx, sgxp2p::NodeId from,
                  sgxp2p::Bytes blob) override {
    ctx_.bind(ctx);
    inner_->on_receive(ctx_, from, std::move(blob));
  }
  std::optional<sgxp2p::Bytes> on_restore(
      const std::vector<sgxp2p::Bytes>& history) override {
    return inner_->on_restore(history);
  }
  [[nodiscard]] bool is_byzantine() const override {
    return inner_->is_byzantine();
  }

 private:
  std::unique_ptr<Strategy> inner_;
  TracingContext ctx_;
};

// ------------------------------------------------------------ unit costs

/// Isolated per-call costs of public functions, each the median of several
/// timed batches (unit_costs.cpp).
double seal_ns(std::size_t wire_size);
double open_ns(std::size_t wire_size);
double observe_ns();
double handshake_us();

// ------------------------------------------------------------- workloads

Report run_erng_attested(const Options& opt);
Report run_shard_epoch(const Options& opt);
Report run_tcp_multicast(const Options& opt);

}  // namespace perfbench
