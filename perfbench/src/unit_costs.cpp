// Isolated unit costs of the public functions the traced run multiplies by
// its counts: SecureLink seal/open, Histogram::observe and the attested
// handshake completion. Each is the median per-call time over several timed
// batches, on its own scratch registry so no run counter moves.
#include <memory>

#include "bench.hpp"
#include "channel/secure_link.hpp"
#include "crypto/aead.hpp"
#include "net/testbed.hpp"
#include "obs/metrics.hpp"
#include "protocol/erng_basic.hpp"

namespace perfbench {

namespace {

using namespace sgxp2p;

constexpr int kBatches = 7;

/// Median over kBatches of (time of `batch` calls of fn) / batch, in ns.
template <typename Fn>
double per_call_ns(int batch, Fn&& fn) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < batch; ++i) fn(i);
    samples.push_back(static_cast<double>(now_ns() - t0) / batch);
  }
  return median(samples);
}

struct LinkPair {
  channel::SecureLink a;
  channel::SecureLink b;
};

LinkPair make_links() {
  const sgx::Measurement program = sgx::measure({"perfbench", "1.0"});
  channel::LinkKeys ka;
  ka.send_key.assign(crypto::kAeadKeySize, 0x11);
  ka.recv_key.assign(crypto::kAeadKeySize, 0x22);
  ka.send_seq0 = 1000;
  ka.recv_seq0 = 2000;
  channel::LinkKeys kb;
  kb.send_key = ka.recv_key;
  kb.recv_key = ka.send_key;
  kb.send_seq0 = ka.recv_seq0;
  kb.recv_seq0 = ka.send_seq0;
  return {channel::SecureLink(0, 1, ka, program),
          channel::SecureLink(1, 0, kb, program)};
}

Bytes plaintext_for(std::size_t wire_size) {
  const std::size_t len =
      wire_size > crypto::kAeadOverhead ? wire_size - crypto::kAeadOverhead : 1;
  Bytes p(len);
  for (std::size_t i = 0; i < len; ++i) p[i] = static_cast<std::uint8_t>(i);
  return p;
}

constexpr int kLinkBatch = 1000;  // stays inside the 1024-message replay window

}  // namespace

double seal_ns(std::size_t wire_size) {
  obs::MetricsRegistry scratch;
  obs::MetricsRegistry::ScopedCurrent bind(scratch);
  LinkPair links = make_links();
  const Bytes plain = plaintext_for(wire_size);
  return per_call_ns(kLinkBatch, [&](int) { (void)links.a.seal(plain); });
}

double open_ns(std::size_t wire_size) {
  obs::MetricsRegistry scratch;
  obs::MetricsRegistry::ScopedCurrent bind(scratch);
  LinkPair links = make_links();
  const Bytes plain = plaintext_for(wire_size);
  // Seal one batch ahead, outside the timed loop, then open it in order.
  std::vector<double> samples;
  std::vector<Bytes> sealed(kLinkBatch);
  std::uint64_t opened = 0;
  for (int b = 0; b < kBatches; ++b) {
    for (auto& s : sealed) s = links.a.seal(plain);
    const std::int64_t t0 = now_ns();
    for (const auto& s : sealed) opened += links.b.open(s).has_value() ? 1 : 0;
    samples.push_back(static_cast<double>(now_ns() - t0) / kLinkBatch);
  }
  return opened == static_cast<std::uint64_t>(kBatches) * kLinkBatch
             ? median(samples)
             : -1;  // a failed open makes the estimate check fail loudly
}

double observe_ns() {
  // The network's latency-histogram shape: a dozen explicit bounds.
  obs::Histogram hist({1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  std::uint64_t x = 0x1234567;
  return per_call_ns(1 << 18, [&](int) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    hist.observe(static_cast<std::int64_t>(x >> 53));
  });
}

double handshake_us() {
  obs::MetricsRegistry scratch;
  sim::TestbedConfig cfg;
  cfg.n = 2;
  cfg.registry = &scratch;
  cfg.engine = sim::SimEngine::kWheel;
  cfg.jobs = 1;
  sim::Testbed bed(cfg);
  bed.build([](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
               protocol::PeerConfig pc, const sgx::SimIAS& ias)
                -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<protocol::ErngBasicNode>(platform, id, host, pc,
                                                     ias);
  });
  obs::MetricsRegistry::ScopedCurrent bind(scratch);
  const Bytes hello = bed.enclave(0).handshake_blob();
  bool ok = true;
  const double ns = per_call_ns(32, [&](int) {
    ok = bed.enclave(1).accept_handshake(hello) && ok;
  });
  return ok ? ns / 1000.0 : -1;
}

}  // namespace perfbench
