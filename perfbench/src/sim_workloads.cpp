// The two simulator workloads: erng-attested (ERNG basic, n = 96, attested
// channels, all hosts honest) and shard-epoch (one sharded epoch at
// n = 10,000, sparse accounted set-up, t_c omission hosts on one
// committee's representatives).
//
// Both run on one thread: the timer-wheel engine with jobs = 1. Every
// operation gets a freshly built Testbed from the same seed-derived inputs,
// so every repetition must reproduce the first one's outputs exactly. The
// first repetition warms the process and is not timed; wall-clock metrics
// are medians over the rest.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "adversary/strategies.hpp"
#include "bench.hpp"
#include "net/testbed.hpp"
#include "obs/pool.hpp"
#include "protocol/erng_basic.hpp"
#include "sgx/transition.hpp"
#include "shard/coordinator.hpp"
#include "shard/digest.hpp"

namespace perfbench {
namespace {

using namespace sgxp2p;

constexpr std::uint32_t kErngN = 96;
constexpr std::uint32_t kShardN = 10000;

/// Registry counters read at the edges of an operation.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t sealed = 0;
  std::uint64_t opened = 0;
  std::uint64_t mac_failed = 0;
  std::uint64_t observes = 0;
  std::uint64_t enclave_sends = 0;  // every `<protocol>.send{TYPE}` counter

  static Counters read(const obs::MetricsRegistry& reg) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    auto get = [&snap](const char* name) -> std::uint64_t {
      const obs::CounterSample* c = snap.find_counter(name);
      return c != nullptr ? c->value : 0;
    };
    Counters c;
    c.events = get("sim.events_fired");
    c.sends = get("net.sends");
    c.delivered = get("net.delivered");
    c.ecalls = get("sgx.ecalls");
    c.ocalls = get("sgx.ocalls");
    c.sealed = get("channel.sealed");
    c.opened = get("channel.opened");
    c.mac_failed = get("channel.mac_failed");
    for (const auto& h : snap.histograms) c.observes += h.count;
    for (const auto& s : snap.counters) {
      if (s.name.find(".send{") != std::string::npos) c.enclave_sends += s.value;
    }
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {events - o.events,     sends - o.sends,
            delivered - o.delivered, ecalls - o.ecalls,
            ocalls - o.ocalls,     sealed - o.sealed,
            opened - o.opened,     mac_failed - o.mac_failed,
            observes - o.observes, enclave_sends - o.enclave_sends};
  }
};

/// Everything one operation produced.
struct OpResult {
  bool ok = true;
  bool traced = false;
  double wall_s = 0;
  Counters op;     // counter deltas over the operation
  Counters total;  // counters at its end, set-up included
  std::uint32_t rounds = 0;
  std::uint32_t decides = 0;
  double virt_s = 0;
  Bytes output;  // the ERNG value or the agreed epoch digest
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::int64_t queue_peak = 0;
  std::size_t fifo_slots = 0;
  std::size_t sink_slots = 0;
  std::vector<SpanRecorder::Totals> spans;  // traced operations only

  [[nodiscard]] bool same_outputs(const OpResult& o) const {
    return output == o.output && messages == o.messages &&
           bytes == o.bytes && virt_s == o.virt_s && rounds == o.rounds &&
           op.ecalls == o.op.ecalls && op.ocalls == o.op.ocalls;
  }
};

/// Span recorder plus the wire-size tally the traced strategies share.
struct Tracing {
  SpanRecorder rec;
  std::vector<std::uint64_t> wire_sizes = std::vector<std::uint64_t>(1 << 16);
};

sim::TestbedConfig base_config(std::uint32_t n, std::uint64_t seed,
                               protocol::ChannelMode mode,
                               obs::MetricsRegistry& reg) {
  sim::TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = mix64(seed);             // platform keys, enclave randomness
  cfg.net.seed = mix64(seed ^ 0x6a);  // network jitter stream
  cfg.net.base_delay = milliseconds(500);
  cfg.net.max_jitter = milliseconds(500);  // Δ = 1 s, as the paper benches
  cfg.mode = mode;
  cfg.engine = sim::SimEngine::kWheel;
  cfg.jobs = 1;
  cfg.registry = &reg;
  return cfg;
}

/// A round span from one round boundary to the next, with the boundary's
/// tick ECALLs as its first child (closed by the first delivery).
void install_round_spans(sim::Testbed& bed, SpanRecorder& rec) {
  bed.add_round_hook([&rec](std::uint32_t) {
    rec.end_all();
    rec.begin(SpanKind::kRound);
    rec.begin(SpanKind::kTick);
  });
}

/// Wraps `inner` (nullptr = honest) for traced runs; passes it through
/// otherwise.
std::unique_ptr<adversary::Strategy> maybe_traced(
    std::unique_ptr<adversary::Strategy> inner, Tracing* tracing) {
  if (tracing == nullptr) return inner;
  if (!inner) inner = std::make_unique<adversary::HonestStrategy>();
  return std::make_unique<TracedStrategy>(std::move(inner), tracing->rec,
                                          tracing->wire_sizes);
}

/// Fills the parts of an OpResult every simulator workload shares.
void finish_op(sim::Testbed& bed, obs::MetricsRegistry& reg,
               const Counters& before, const obs::BufferPool::Stats& pool0,
               Tracing* tracing, OpResult& r) {
  if (tracing != nullptr) r.spans = tracing->rec.fold_and_clear();
  r.traced = tracing != nullptr;
  r.total = Counters::read(reg);
  r.op = r.total - before;
  const obs::BufferPool::Stats& pool = obs::BufferPool::local().stats();
  r.pool_hits = pool.hits - pool0.hits;
  r.pool_misses = pool.misses - pool0.misses;
  r.messages = bed.network().meter().messages();
  r.bytes = bed.network().meter().bytes();
  r.queue_peak = reg.gauge("sim.queue_peak").value();
  r.fifo_slots = bed.network().fifo_pair_slots();
  r.sink_slots = bed.network().sink_slots();
  // Every ECALL carries at least one delivery or one tick, and every OCALL
  // at least one message an enclave sent. Both hold however deliveries are
  // batched.
  const std::uint64_t n = bed.config().n;
  if (r.op.ecalls > r.op.delivered + n * r.rounds) {
    std::fprintf(stderr, "perfbench: sgx.ecalls %llu > delivered + n*rounds\n",
                 static_cast<unsigned long long>(r.op.ecalls));
    r.ok = false;
  }
  if (r.op.ocalls > r.op.enclave_sends) {
    std::fprintf(stderr, "perfbench: sgx.ocalls %llu > enclave sends %llu\n",
                 static_cast<unsigned long long>(r.op.ocalls),
                 static_cast<unsigned long long>(r.op.enclave_sends));
    r.ok = false;
  }
}

bool check(bool cond, const char* what) {
  if (!cond) std::fprintf(stderr, "perfbench: output check failed: %s\n", what);
  return cond;
}

// ------------------------------------------------------------ erng-attested

class ErngAttested {
 public:
  explicit ErngAttested(std::uint64_t seed) : seed_(seed) {}

  void build(Tracing* tracing) {
    bed_.reset();
    reg_ = std::make_unique<obs::MetricsRegistry>();
    bed_ = std::make_unique<sim::Testbed>(base_config(
        kErngN, seed_, protocol::ChannelMode::kAttested, *reg_));
    bed_->build(
        [](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
           protocol::PeerConfig pc,
           const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::ErngBasicNode>(platform, id, host,
                                                           pc, ias);
        },
        [tracing](NodeId) { return maybe_traced(nullptr, tracing); });
    nodes_.clear();
    for (NodeId id = 0; id < kErngN; ++id) {
      nodes_.push_back(&bed_->enclave_as<protocol::ErngBasicNode>(id));
    }
    if (tracing != nullptr) install_round_spans(*bed_, tracing->rec);
  }

  OpResult run(Tracing* tracing) {
    sim::Testbed& bed = *bed_;
    OpResult r;
    const Counters before = Counters::read(*reg_);
    const obs::BufferPool::Stats pool0 = obs::BufferPool::local().stats();
    const auto all_done = [this] {
      return std::all_of(nodes_.begin(), nodes_.end(),
                         [](auto* node) { return node->result().done; });
    };
    const auto t0 = Clock::now();
    bed.start();
    r.rounds = bed.run_rounds(bed.config().effective_t() + 4, all_done);
    r.wall_s = seconds_between(t0, Clock::now());
    finish_op(bed, *reg_, before, pool0, tracing, r);

    // Outputs, checked against values computed here from the enclaves'
    // own contributions and from the honest all-to-all message count.
    const std::uint64_t n = kErngN;
    Bytes expect(32, 0);
    SimTime last = 0;
    bool all_ok = true;
    for (auto* node : nodes_) {
      const auto& res = node->result();
      all_ok = all_ok && res.done && !res.is_bottom && res.set_size == n;
      const Bytes& own = node->own_contribution();
      for (std::size_t i = 0; i < expect.size() && i < own.size(); ++i) {
        expect[i] ^= own[i];
      }
      last = std::max(last, res.decided_at);
      if (res.done) r.decides++;
    }
    r.output = nodes_.front()->result().value;
    bool agree = true;
    for (auto* node : nodes_) agree = agree && node->result().value == r.output;
    r.virt_s = to_seconds(last - bed.start_time());

    r.ok = check(all_ok, "every node done, non-bottom, |S_final| = n") && r.ok;
    r.ok = check(agree && r.output == expect,
                 "all nodes hold the XOR of every own_contribution()") && r.ok;
    r.ok = check(r.messages == 2 * n * n * (n - 1),
                 "wire messages = 2 n^2 (n-1)") && r.ok;
    // The output is fixed at the boundary that ends the deciding round, so
    // "within f + 2 rounds" reads as f + 2 round lengths of virtual time.
    r.ok = check(last - bed.start_time() <= 2 * bed.config().effective_round(),
                 "last decision within f + 2 rounds (f = 0)") &&
           r.ok;
    r.ok = check(r.total.opened == r.total.delivered + n * (n - 1),
                 "channel.opened = net.delivered + n(n-1)") && r.ok;
    r.ok = check(r.total.mac_failed == 0, "channel.mac_failed = 0") && r.ok;
    // With every host honest and nobody halting, each OCALL is a network
    // send too. (Not so in shard-epoch: omission hosts withhold blobs, and
    // Network::send discards, uncounted, blobs addressed to halted nodes.)
    r.ok = check(r.op.ocalls <= r.op.sends, "sgx.ocalls <= net.sends") && r.ok;
    return r;
  }

  [[nodiscard]] std::uint32_t n() const { return kErngN; }
  [[nodiscard]] std::uint64_t handshakes() const {
    return static_cast<std::uint64_t>(kErngN) * (kErngN - 1);
  }
  [[nodiscard]] double election_s() const { return 0; }
  [[nodiscard]] std::size_t committees() const { return 0; }

 private:
  std::uint64_t seed_;
  // Declared before the testbed, which instruments it.
  std::unique_ptr<obs::MetricsRegistry> reg_;
  std::unique_ptr<sim::Testbed> bed_;
  std::vector<protocol::ErngBasicNode*> nodes_;
};

// -------------------------------------------------------------- shard-epoch

class ShardEpoch {
 public:
  explicit ShardEpoch(std::uint64_t seed) : seed_(seed) {
    genesis_.resize(32);
    for (std::size_t i = 0; i < genesis_.size(); ++i) {
      genesis_[i] = static_cast<std::uint8_t>(mix64(seed_ * 131 + i));
    }
  }

  void build(Tracing* tracing) {
    bed_.reset();
    reg_ = std::make_unique<obs::MetricsRegistry>();
    // The election is a pure function of public inputs: compute epoch 0's
    // assignment up front and plant the t_c omission hosts on the first t_c
    // members of committee 0, its lowest-id representatives.
    const auto te = Clock::now();
    election_ = shard::Election::compute(kShardN, 0, 0, genesis_, 1);
    election_s_ = seconds_between(te, Clock::now());
    const shard::CommitteeInfo& target = election_.committees().front();
    byz_ = std::set<NodeId>(target.members.begin(),
                            target.members.begin() + target.t_c);

    sim::TestbedConfig cfg = base_config(
        kShardN, seed_, protocol::ChannelMode::kAccounted, *reg_);
    // Sparse accounted set-up: no pre-wired clique.
    cfg.setup_peers = [](NodeId) { return std::vector<NodeId>{}; };
    bed_ = std::make_unique<sim::Testbed>(cfg);
    bed_->build(shard::ShardCoordinator::make_factory(),
                [this, tracing](NodeId id) {
                  std::unique_ptr<adversary::Strategy> s;
                  if (byz_.count(id) != 0) {
                    s = std::make_unique<adversary::RandomOmissionStrategy>(
                        0.5, 0.3);
                  }
                  return maybe_traced(std::move(s), tracing);
                });
    if (tracing != nullptr) install_round_spans(*bed_, tracing->rec);
  }

  OpResult run(Tracing* tracing) {
    sim::Testbed& bed = *bed_;
    OpResult r;
    const Counters before = Counters::read(*reg_);
    const obs::BufferPool::Stats pool0 = obs::BufferPool::local().stats();
    const auto t0 = Clock::now();
    bed.start();
    shard::ShardConfig scfg;
    scfg.epochs = 1;
    scfg.genesis_seed = genesis_;
    shard::ShardCoordinator coord(bed, scfg);
    const shard::EpochSummary summary = coord.run_epoch();
    r.wall_s = seconds_between(t0, Clock::now());
    r.rounds = bed.rounds_run();
    bed.network().publish_capacity_gauges();
    finish_op(bed, *reg_, before, pool0, tracing, r);
    r.virt_s = to_seconds(bed.simulator().now() - bed.start_time());

    // Committees cover 0..n-1 exactly once, as the planted election said.
    const auto& committees = coord.election().committees();
    std::vector<std::uint8_t> seen(kShardN, 0);
    bool cover = committees.size() == election_.committees().size();
    for (std::size_t k = 0; cover && k < committees.size(); ++k) {
      cover = committees[k].members == election_.committees()[k].members;
      for (NodeId id : committees[k].members) {
        cover = cover && id < kShardN && seen[id]++ == 0;
      }
    }
    cover = cover && std::count(seen.begin(), seen.end(), 1) == kShardN;

    // Every honest node holds the same global digest; each committee's
    // honest members agree on its committee digest.
    bool agree = true;
    std::vector<Bytes> committee_digest(committees.size());
    for (std::size_t k = 0; k < committees.size(); ++k) {
      for (NodeId id : committees[k].members) {
        if (byz_.count(id) != 0) continue;
        const auto& res = bed.enclave_as<shard::ShardNode>(id).result();
        agree = agree && res.done && res.epoch == 0;
        if (r.output.empty()) r.output = res.global_digest;
        agree = agree && res.global_digest == r.output;
        if (committee_digest[k].empty()) committee_digest[k] = res.committee_digest;
        agree = agree && res.committee_digest == committee_digest[k];
        if (res.done) r.decides++;
      }
    }
    // The global digest recomputed bottom-up through shard/digest.hpp.
    std::vector<Bytes> subtree(committees.size());
    for (std::size_t k = committees.size(); k-- > 0;) {
      std::vector<Bytes> children;
      for (std::uint32_t c : committees[k].children) {
        children.push_back(subtree.at(c));
      }
      subtree[k] = shard::subtree_digest(committee_digest[k], children);
    }
    const std::uint32_t budget =
        shard::epoch_round_budget(kShardN, election_.committee_size());

    r.ok = check(cover, "committees cover 0..n-1 exactly once") && r.ok;
    r.ok = check(agree && r.output.size() == shard::kShardDigestSize,
                 "every honest node holds the same global digest") && r.ok;
    r.ok = check(!subtree.empty() && subtree.front() == r.output,
                 "recomputed global digest equals the agreed one") && r.ok;
    r.ok = check(r.rounds <= budget, "epoch ends within epoch_round_budget") &&
           r.ok;
    r.ok = check(summary.ok(), "coordinator oracles hold") && r.ok;
    return r;
  }

  [[nodiscard]] std::uint32_t n() const { return kShardN; }
  [[nodiscard]] std::uint64_t handshakes() const { return 0; }
  [[nodiscard]] double election_s() const { return election_s_; }
  [[nodiscard]] std::size_t committees() const {
    return election_.committees().size();
  }

 private:
  std::uint64_t seed_;
  Bytes genesis_;
  shard::Election election_;
  double election_s_ = 0;
  std::set<NodeId> byz_;
  std::unique_ptr<obs::MetricsRegistry> reg_;
  std::unique_ptr<sim::Testbed> bed_;
};

// ------------------------------------------------------------ shared driver

std::size_t median_wire_size(const std::vector<std::uint64_t>& sizes) {
  std::uint64_t total = 0;
  for (std::uint64_t c : sizes) total += c;
  std::uint64_t acc = 0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    acc += sizes[s];
    if (2 * acc >= total && total > 0) return s;
  }
  return 0;
}

template <typename Workload>
Report run_sim(const Options& opt, Workload& w) {
  Report rep;
  Tracing tracing;
  w.build(nullptr);  // the cold set-up
  rep.set("setup_s", seconds_between(opt.process_start, Clock::now()));

  // Repetition 0 warms the process and is not timed. In a traced run the
  // timed repetitions alternate traced / untraced.
  std::vector<OpResult> results;
  const auto measure_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const auto cycle_start = Clock::now();
    const bool traced = opt.trace && i % 2 == 1;
    if (i > 0) w.build(traced ? &tracing : nullptr);
    results.push_back(w.run(traced ? &tracing : nullptr));
    rep.attempted++;
    if (!results.back().ok) rep.failed++;
    std::fprintf(stderr, "perfbench: %s repetition %zu: %.3f s%s%s\n",
                 opt.workload.c_str(), i, results.back().wall_s,
                 i == 0 ? " (warm-up)" : "", traced ? " (traced)" : "");
    const auto now = Clock::now();
    const double cycle = seconds_between(cycle_start, now);
    const double elapsed = seconds_between(measure_start, now);
    if (results.size() >= (opt.trace ? 3u : 2u) &&
        elapsed + cycle > opt.seconds) {
      break;
    }
  }

  const OpResult& ref = results.front();
  for (const OpResult& r : results) {
    if (!r.same_outputs(ref)) {
      rep.fail("a repetition (traced or not) changed the deterministic outputs");
    }
  }

  std::vector<double> walls, rates, traced_walls;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const OpResult& r = results[i];
    if (r.traced) {
      traced_walls.push_back(r.wall_s);
    } else {
      walls.push_back(r.wall_s);
      rates.push_back(static_cast<double>(r.op.delivered) / r.wall_s);
    }
  }
  rep.set("op_wall_s", median(walls));
  rep.set("msgs_per_s", median(rates));
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("msgs_per_op", static_cast<double>(ref.messages));
  rep.set("wire_mb_per_op",
          static_cast<double>(ref.bytes) / (1024.0 * 1024.0));
  rep.set("virt_s_per_op", ref.virt_s);
  const sgx::TransitionCosts cal = sgx::TransitionCosts::calibrated();
  rep.set("sgx_transition_ms_per_op",
          (static_cast<double>(ref.op.ecalls) * cal.ecall_ns +
           static_cast<double>(ref.op.ocalls) * cal.ocall_ns) /
              1e6);
  if (!opt.trace) return rep;

  // ---- per-layer metrics from the traced repetitions
  std::vector<SpanRecorder::Totals> spans(
      static_cast<std::size_t>(SpanKind::kCount));
  std::size_t traced = 0;
  for (const OpResult& r : results) {
    if (!r.traced) continue;
    ++traced;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      spans[k].count += r.spans[k].count;
      spans[k].inclusive_s += r.spans[k].inclusive_s;
      spans[k].self_s += r.spans[k].self_s;
    }
  }
  auto span = [&](SpanKind k) -> const SpanRecorder::Totals& {
    return spans[static_cast<std::size_t>(k)];
  };
  const double tn = static_cast<double>(traced);
  const double delivers = static_cast<double>(span(SpanKind::kDeliver).count) / tn;

  rep.set("sim.events_per_op", static_cast<double>(ref.op.events));
  rep.set("sim.queue_peak", static_cast<double>(ref.queue_peak));
  const double loop_self = span(SpanKind::kRound).self_s / tn;
  rep.set("sim.loop_self_s", loop_self);
  rep.set("sim.ns_per_event",
          ref.op.events > 0 ? loop_self * 1e9 / static_cast<double>(ref.op.events)
                            : 0);
  rep.set("protocol.ticks_per_op", static_cast<double>(ref.op.ecalls) - delivers);
  rep.set("net.sends_per_op", static_cast<double>(ref.op.sends));
  rep.set("net.delivered_ratio", ref.op.sends > 0
                                     ? static_cast<double>(ref.op.delivered) /
                                           static_cast<double>(ref.op.sends)
                                     : 0);
  rep.set("net.route_s", span(SpanKind::kRoute).inclusive_s / tn);
  rep.set("net.fifo_pair_slots", static_cast<double>(ref.fifo_slots));
  rep.set("net.sink_slots", static_cast<double>(ref.sink_slots));
  rep.set("sgx.ecalls_per_op", static_cast<double>(ref.op.ecalls));
  rep.set("sgx.ocalls_per_op", static_cast<double>(ref.op.ocalls));
  rep.set("sgx.ecalls_per_delivery",
          ref.op.delivered > 0 ? static_cast<double>(ref.op.ecalls) /
                                     static_cast<double>(ref.op.delivered)
                               : 0);
  const double enclave_s =
      (span(SpanKind::kDeliver).self_s + span(SpanKind::kTick).self_s) / tn;
  rep.set("sgx.enclave_s", enclave_s);

  const std::size_t wire = median_wire_size(tracing.wire_sizes);
  const double seal = ref.op.sealed > 0 ? seal_ns(wire) : 0;
  const double open = ref.op.opened > 0 ? open_ns(wire) : 0;
  const double channel_est =
      (static_cast<double>(ref.op.sealed) * seal +
       static_cast<double>(ref.op.opened) * open) * 1e-9;
  rep.set("channel.sealed_per_op", static_cast<double>(ref.op.sealed));
  rep.set("channel.opened_per_op", static_cast<double>(ref.op.opened));
  rep.set("channel.mac_failed_per_op", static_cast<double>(ref.op.mac_failed));
  rep.set("channel.seal_ns", seal);
  rep.set("channel.open_ns", open);
  rep.set("channel.est_s", channel_est);

  const double hs = w.handshakes() > 0 ? handshake_us() : 0;
  rep.set("crypto.handshakes", static_cast<double>(w.handshakes()));
  rep.set("crypto.handshake_us", hs);
  rep.set("crypto.setup_est_s", static_cast<double>(w.handshakes()) * hs * 1e-6);

  const double obs_ns = observe_ns();
  const double obs_est = static_cast<double>(ref.op.observes) * obs_ns * 1e-9;
  rep.set("obs.hist_observes_per_op", static_cast<double>(ref.op.observes));
  rep.set("obs.observe_ns", obs_ns);
  rep.set("obs.est_s", obs_est);
  rep.set("obs.pool_hit_ratio",
          ref.pool_hits + ref.pool_misses > 0
              ? static_cast<double>(ref.pool_hits) /
                    static_cast<double>(ref.pool_hits + ref.pool_misses)
              : 0);

  rep.set("protocol.rounds_per_op", ref.rounds);
  rep.set("protocol.decides_per_op", ref.decides);
  rep.set("protocol.handler_est_s",
          std::max(0.0, enclave_s - channel_est - obs_est));
  rep.set("shard.committees", static_cast<double>(w.committees()));
  rep.set("shard.msgs_per_node",
          static_cast<double>(ref.messages) / static_cast<double>(w.n()));
  rep.set("shard.election_s", w.election_s());

  // The estimates and the traced span that contains their work come from
  // independent measurements; the estimate may not exceed the span. The
  // left side also counts the engine's and the route's observes, which lie
  // outside the span, so the test is only stricter for it.
  if (seal < 0 || open < 0 || hs < 0) rep.fail("a unit-cost probe failed");
  if (channel_est + obs_est > enclave_s) {
    rep.fail("channel.est_s + obs.est_s exceeds sgx.enclave_s");
  }
  rep.set("bench.trace_overhead_pct",
          walls.empty() || traced_walls.empty()
              ? 0
              : (median(traced_walls) / median(walls) - 1.0) * 100.0);
  return rep;
}

}  // namespace

Report run_erng_attested(const Options& opt) {
  ErngAttested w(opt.seed);
  return run_sim(opt, w);
}

Report run_shard_epoch(const Options& opt) {
  ShardEpoch w(opt.seed);
  return run_sim(opt, w);
}

}  // namespace perfbench
