// tcp-multicast: 32 endpoints on one net::TcpBus over loopback, in this
// process. Endpoints take turns multicasting protocol-sized frames (96-byte
// payloads, 108 bytes with the bus framing — about a sealed ERB message) to
// the other 31. A bounded in-flight window makes the driver a closed loop.
// One operation is kMulticastsPerOp multicasts, drained to the last frame.
//
// Every payload carries its sender id, a per-sender sequence number and a
// checksum computed before sending; the receiver callback checks all three,
// so each frame must arrive exactly once at each other endpoint, in
// per-sender order, intact.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "net/tcp_bus.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace sgxp2p;

constexpr std::uint32_t kEndpoints = 32;
constexpr std::size_t kPayload = 96;  // u32 sender ‖ u64 seq ‖ u64 sum ‖ body
constexpr std::size_t kBusHeader = 12;  // TcpBus frame header
constexpr std::size_t kSumOffset = 12;
constexpr std::uint64_t kMulticastsPerOp = 4096;
constexpr std::uint64_t kFramesPerOp = kMulticastsPerOp * (kEndpoints - 1);
// Frames in flight: about 32 per connection, far below the bus's
// backpressure watermark, enough for writev to coalesce.
constexpr std::uint64_t kWindowFrames = 31 * 1024;
constexpr double kStallSeconds = 30;

/// Word-wise 64-bit checksum over the payload with its checksum field zero.
std::uint64_t checksum(const std::uint8_t* p) {
  std::uint8_t buf[kPayload];
  std::memcpy(buf, p, kPayload);
  std::memset(buf + kSumOffset, 0, 8);
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (std::size_t off = 0; off < kPayload; off += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, buf + off, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

std::uint64_t read_counter(const obs::MetricsRegistry& reg, const char* name) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::CounterSample* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

/// Receiver-side state. Touched only by the bus I/O thread while frames
/// flow; the driver reads it after draining (received is the release /
/// acquire edge) or after stop().
struct Inbox {
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<bool> tracing{false};
  std::uint64_t next_seq[kEndpoints][kEndpoints] = {};  // [to][from]
  SpanRecorder rec;

  void on_frame(NodeId to, NodeId from, const Bytes& blob) {
    const bool traced = tracing.load(std::memory_order_relaxed);
    const std::uint32_t span = traced ? rec.begin(SpanKind::kRecv) : 0;
    bool ok = blob.size() == kPayload && to < kEndpoints && from < kEndpoints;
    if (ok) {
      const std::uint32_t sender = load_le32(blob.data());
      const std::uint64_t seq = load_le64(blob.data() + 4);
      const std::uint64_t sum = load_le64(blob.data() + kSumOffset);
      ok = sender == from && seq == next_seq[to][from] &&
           sum == checksum(blob.data());
      if (ok) ++next_seq[to][from];
    }
    if (traced) rec.end(span);
    if (!ok) errors.fetch_add(1, std::memory_order_relaxed);
    received.fetch_add(1, std::memory_order_release);
  }
};

template <typename Pred>
bool wait_until(const Pred& done) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kStallSeconds));
  while (!done()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

struct OpStats {
  double wall_s = 0;
  bool traced = false;
  std::uint64_t frames = 0;
  std::uint64_t writev_calls = 0;
  double send_s = 0;
  double recv_s = 0;
};

}  // namespace

Report run_tcp_multicast(const Options& opt) {
  Report rep;
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);  // the bus resolves here
  Inbox inbox;  // declared before the bus, whose I/O thread writes it
  net::TcpBus bus(kEndpoints);
  bus.set_receiver([&inbox](NodeId to, NodeId from, Bytes blob) {
    inbox.on_frame(to, from, blob);
  });
  if (!bus.start()) {
    std::fprintf(stderr, "perfbench: TcpBus mesh bring-up failed\n");
    std::exit(1);
  }
  rep.set("setup_s", seconds_between(opt.process_start, Clock::now()));

  std::vector<std::vector<NodeId>> groups(kEndpoints);
  for (NodeId s = 0; s < kEndpoints; ++s) {
    for (NodeId d = 0; d < kEndpoints; ++d) {
      if (d != s) groups[s].push_back(d);
    }
  }
  std::uint64_t next_seq[kEndpoints] = {};
  const std::uint64_t body_seed = mix64(opt.seed);
  std::uint64_t sent = 0;  // frames accepted by the bus
  SpanRecorder send_rec;

  std::vector<OpStats> ops;
  bool stalled = false;
  const auto measure_start = Clock::now();
  for (std::size_t i = 0; !stalled; ++i) {
    OpStats st;
    st.traced = opt.trace && i % 2 == 1;  // op 0 warms up, untraced
    inbox.tracing.store(st.traced, std::memory_order_relaxed);
    const std::uint64_t errors0 = inbox.errors.load();
    const std::uint64_t writev0 = read_counter(reg, "net.tcp.writev_calls");
    const std::uint64_t received0 = inbox.received.load();
    bool op_ok = true;
    const auto t0 = Clock::now();
    for (std::uint64_t m = 0; m < kMulticastsPerOp; ++m) {
      const NodeId s = static_cast<NodeId>(m % kEndpoints);
      Bytes payload(kPayload);
      const std::uint64_t seq = next_seq[s]++;
      store_le32(payload.data(), s);
      store_le64(payload.data() + 4, seq);
      std::uint64_t x = body_seed ^ (static_cast<std::uint64_t>(s) << 48) ^ seq;
      for (std::size_t off = kSumOffset + 8; off < kPayload; off += 4) {
        x = mix64(x);
        store_le32(payload.data() + off, static_cast<std::uint32_t>(x));
      }
      store_le64(payload.data() + kSumOffset, checksum(payload.data()));
      if (!wait_until([&] {
            return sent - inbox.received.load(std::memory_order_acquire) <=
                   kWindowFrames;
          })) {
        stalled = true;
        break;
      }
      const std::uint32_t span =
          st.traced ? send_rec.begin(SpanKind::kMulticast) : 0;
      const net::SendStatus status =
          bus.multicast(s, groups[s], std::move(payload));
      if (st.traced) send_rec.end(span);
      if (status != net::SendStatus::kOk) {
        std::fprintf(stderr, "perfbench: multicast refused: %s\n",
                     net::send_status_name(status));
        op_ok = false;
        stalled = true;  // partially queued frames would never balance
        break;
      }
      sent += kEndpoints - 1;
    }
    if (!stalled &&
        !wait_until([&] {
          return inbox.received.load(std::memory_order_acquire) >= sent;
        })) {
      stalled = true;
    }
    st.wall_s = seconds_between(t0, Clock::now());
    st.frames = inbox.received.load(std::memory_order_acquire) - received0;
    st.writev_calls = read_counter(reg, "net.tcp.writev_calls") - writev0;
    if (st.traced) {
      st.send_s = send_rec.fold_and_clear()[static_cast<std::size_t>(
                                                SpanKind::kMulticast)]
                      .inclusive_s;
      st.recv_s =
          inbox.rec.fold_and_clear()[static_cast<std::size_t>(SpanKind::kRecv)]
              .inclusive_s;
    }
    op_ok = op_ok && !stalled && st.frames == kFramesPerOp &&
            inbox.errors.load() == errors0;
    rep.attempted++;
    if (!op_ok) rep.failed++;
    ops.push_back(st);
    const double elapsed = seconds_between(measure_start, Clock::now());
    if (ops.size() >= (opt.trace ? 3u : 2u) && elapsed + st.wall_s > opt.seconds) {
      break;
    }
  }
  inbox.tracing.store(false);
  bus.stop();
  if (stalled) rep.fail("the bus stalled or refused a frame");

  // Exactly once, in per-sender order, at each of the other endpoints.
  for (NodeId to = 0; to < kEndpoints; ++to) {
    for (NodeId from = 0; from < kEndpoints; ++from) {
      if (to != from && inbox.next_seq[to][from] != next_seq[from]) {
        rep.fail("a receiver missed or repeated frames of a sender");
      }
    }
  }
  if (inbox.errors.load() != 0) {
    rep.fail("frames arrived out of order, duplicated or corrupted");
  }

  std::vector<double> walls, rates, traced_walls;
  double writev = 0, send_s = 0, recv_s = 0;
  std::size_t timed = 0, traced = 0;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    const OpStats& st = ops[i];
    ++timed;
    writev += static_cast<double>(st.writev_calls);
    if (st.traced) {
      ++traced;
      traced_walls.push_back(st.wall_s);
      send_s += st.send_s;
      recv_s += st.recv_s;
    } else {
      walls.push_back(st.wall_s);
      rates.push_back(static_cast<double>(st.frames) / st.wall_s);
    }
  }
  const double frames = static_cast<double>(kFramesPerOp);
  rep.set("op_wall_s", median(walls));
  rep.set("msgs_per_s", median(rates));
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("msgs_per_op", frames);
  rep.set("wire_mb_per_op",
          frames * static_cast<double>(kPayload + kBusHeader) /
              (1024.0 * 1024.0));
  if (read_counter(reg, "net.tcp.sent_bytes") !=
      sent * static_cast<std::uint64_t>(kPayload)) {
    rep.fail("net.tcp.sent_bytes disagrees with the frames planned");
  }
  if (!opt.trace) return rep;

  const double per_op_writev = timed > 0 ? writev / static_cast<double>(timed) : 0;
  rep.set("tcp.frames_per_op", frames);
  rep.set("tcp.writev_calls_per_op", per_op_writev);
  rep.set("tcp.frames_per_writev", per_op_writev > 0 ? frames / per_op_writev : 0);
  rep.set("tcp.backpressure_events",
          static_cast<double>(read_counter(reg, "net.tcp.backpressure_events")));
  rep.set("tcp.send_call_s", traced > 0 ? send_s / static_cast<double>(traced) : 0);
  rep.set("tcp.recv_callback_s",
          traced > 0 ? recv_s / static_cast<double>(traced) : 0);
  double observes = 0;
  for (const auto& h : reg.snapshot().histograms) {
    observes += static_cast<double>(h.count);
  }
  const double per_op_observes =
      ops.empty() ? 0 : observes / static_cast<double>(ops.size());
  const double obs_ns = observe_ns();
  rep.set("obs.hist_observes_per_op", per_op_observes);
  rep.set("obs.observe_ns", obs_ns);
  rep.set("obs.est_s", per_op_observes * obs_ns * 1e-9);
  rep.set("bench.trace_overhead_pct",
          walls.empty() || traced_walls.empty()
              ? 0
              : (median(traced_walls) / median(walls) - 1.0) * 100.0);
  return rep;
}

}  // namespace perfbench
