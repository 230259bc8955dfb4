// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload erng-attested|shard-epoch|tcp-multicast
//             --seed N --seconds S --trace 0|1
//
// Runs one workload in this process for about S seconds, checks the
// program's outputs, and prints as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (README.md lists both and how each is derived).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>

#include "bench.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atol(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0;
}

std::vector<SpanRecorder::Totals> SpanRecorder::fold_and_clear() {
  end_all();
  std::vector<Totals> out(static_cast<std::size_t>(SpanKind::kCount));
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[static_cast<std::size_t>(s.kind)];
    ++t.count;
    t.inclusive_s += static_cast<double>(s.end - s.start) * 1e-9;
    t.self_s += static_cast<double>(s.end - s.start - child_ns[i]) * 1e-9;
  }
  spans_.clear();
  return out;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Order and units match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"op_wall_s", "s"},
    {"msgs_per_s", "msg/s"},   {"peak_rss_mb", "MB"},
    {"msgs_per_op", "msg"},    {"wire_mb_per_op", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"virt_s_per_op", "virt_s"},
    {"sgx_transition_ms_per_op", "ms"},
    {"sim.events_per_op", "count"},
    {"sim.queue_peak", "count"},
    {"sim.loop_self_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"protocol.ticks_per_op", "count"},
    {"net.sends_per_op", "count"},
    {"net.delivered_ratio", "ratio"},
    {"net.route_s", "s"},
    {"net.fifo_pair_slots", "count"},
    {"net.sink_slots", "count"},
    {"sgx.ecalls_per_op", "count"},
    {"sgx.ocalls_per_op", "count"},
    {"sgx.ecalls_per_delivery", "ratio"},
    {"sgx.enclave_s", "s"},
    {"channel.sealed_per_op", "count"},
    {"channel.opened_per_op", "count"},
    {"channel.mac_failed_per_op", "count"},
    {"channel.seal_ns", "ns"},
    {"channel.open_ns", "ns"},
    {"channel.est_s", "s"},
    {"crypto.handshakes", "count"},
    {"crypto.handshake_us", "us"},
    {"crypto.setup_est_s", "s"},
    {"protocol.rounds_per_op", "count"},
    {"protocol.decides_per_op", "count"},
    {"protocol.handler_est_s", "s"},
    {"shard.committees", "count"},
    {"shard.msgs_per_node", "msg"},
    {"shard.election_s", "s"},
    {"obs.hist_observes_per_op", "count"},
    {"obs.observe_ns", "ns"},
    {"obs.est_s", "s"},
    {"obs.pool_hit_ratio", "ratio"},
    {"tcp.frames_per_op", "count"},
    {"tcp.writev_calls_per_op", "count"},
    {"tcp.frames_per_writev", "ratio"},
    {"tcp.backpressure_events", "count"},
    {"tcp.send_call_s", "s"},
    {"tcp.recv_callback_s", "s"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "erng-attested|shard-epoch|tcp-multicast --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(what);
  return v;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.process_start = Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = parse_u64(val, "bad --seed");
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = static_cast<double>(parse_u64(val, "bad --seconds"));
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = parse_u64(val, "bad --trace") != 0;
    } else {
      usage("unknown argument");
    }
  }
  if (argc % 2 == 0) usage("arguments come in --key value pairs");

  Report rep;
  if (opt.workload == "erng-attested") {
    rep = run_erng_attested(opt);
  } else if (opt.workload == "shard-epoch") {
    rep = run_shard_epoch(opt);
  } else if (opt.workload == "tcp-multicast") {
    rep = run_tcp_multicast(opt);
  } else {
    usage("unknown --workload");
  }

  if (!opt.trace) {
    for (const MetricDef& m : kEndToEnd) {
      auto it = rep.values.find(m.name);
      if (it == rep.values.end() || !std::isfinite(it->second) ||
          it->second <= 0) {
        rep.fail(std::string("end-to-end metric missing or not positive: ") +
                 m.name);
      }
    }
  }

  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  // A layer a workload does not run reads 0.
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    auto it = rep.values.find(m.name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  it == rep.values.end() ? 0.0 : it->second);
    json += first ? "" : ", ";
    json += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
