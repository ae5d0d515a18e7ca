// Simulator determinism PIN: the SHA-256 of canonical decision transcripts
// for fixed (spec, seed) pairs, captured from the build immediately before
// the multi-core-replica PR landed. The multi-core work (shared verdict
// cache, verification worker pool, batched socket writes) must be
// invisible to the single-threaded simulator — not merely "deterministic",
// but bit-identical to what the pre-PR tree produced. A pin failure means
// protocol-visible behavior changed; if that is ever intentional, the new
// digests must be re-captured and the change called out in the PR.
//
// The pinned shapes mirror the nightly n = 500 sweep (o = 1.7, l = 2.0,
// f = n/10) plus the SMR fleet workload, covering the happy path, a forced
// view change, and the windowed SMR engine.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "sim/scenario.hpp"

namespace probft::sim {
namespace {

std::string transcript_sha256(const ScenarioSpec& spec, std::uint64_t seed) {
  const ScenarioOutcome out = run_scenario(spec, seed);
  EXPECT_TRUE(out.terminated) << scenario_name(spec) << " seed " << seed;
  EXPECT_TRUE(out.agreement) << scenario_name(spec) << " seed " << seed;
  crypto::Sha256 h;
  h.update(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(out.transcript.data()),
      out.transcript.size()));
  const auto digest = h.finalize();
  return to_hex(Bytes(digest.begin(), digest.end()));
}

ScenarioSpec sweep_spec() {
  ScenarioSpec spec;
  spec.protocol = Protocol::kProbft;
  spec.n = 500;
  spec.f = 50;
  spec.o = 1.7;
  spec.l = 2.0;
  spec.fault = Fault::kNone;
  spec.latency = LatencyModel::kSynchronous;
  return spec;
}

TEST(SweepPin, N500HappyPathTranscriptsUnchanged) {
  const ScenarioSpec spec = sweep_spec();
  EXPECT_EQ(
      transcript_sha256(spec, 1),
      "823a2514f79e00c76699d4b29360e75076a7f8069c1c258c59fcfc80b92d9b60");
  EXPECT_EQ(
      transcript_sha256(spec, 2),
      "1d4e564ae90f3242703563ab7d4e3a9373ec4c931d6140864ca24b552dfb8513");
}

TEST(SweepPin, N500ViewChangeTranscriptUnchanged) {
  ScenarioSpec spec = sweep_spec();
  spec.fault = Fault::kSilentLeader;  // view-1 leader crashes: real VC path
  EXPECT_EQ(
      transcript_sha256(spec, 1),
      "84bc39c7d269931d9c9d6527623e6a83cdbc45ce43cc521c313907ea47ebaf9f");
}

// Re-pinned once, on purpose: a partial batch now opens at once on an
// idle pipeline instead of after the pacing timer, which changes slot
// contents (69f2fe25f46c75cbc6ed649e632473d8d57423ea023c38b9e582a3dc36273bcf
// before). run_scenario_smr's exactly-once check holds on the new run.
TEST(SweepPin, SmrFleetTranscriptUnchanged) {
  ScenarioSpec spec;
  spec.protocol = Protocol::kProbft;
  spec.n = 32;
  spec.f = 3;
  spec.fault = Fault::kNone;
  spec.workload = Workload::kSmr;
  EXPECT_EQ(
      transcript_sha256(spec, 1),
      "a53d99e8b74b339fa46d34990e6ca43a01c88758e5b9b616a4ee906c03cefb10");
}

}  // namespace
}  // namespace probft::sim
