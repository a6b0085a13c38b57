// Byzantine chaos end-to-end: defended runs stay invariant-clean and the
// integrity audit accounts for every injected attack; an undefended run
// with the identical attacker demonstrably mis-actuates.
//
// These tests close the loop the DESIGN §12 threat model promises:
//   injector ground truth (kByzantine markers)  ==  detector evidence
// with zero false positives on a non-adversarial run.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "common/hash.hpp"
#include "trace/provenance.hpp"

namespace riv {
namespace {

chaos::EngineOptions byzantine_options(std::uint64_t seed) {
  chaos::EngineOptions opt;
  opt.scenario.seed = seed;
  opt.plan.horizon = seconds(45);
  opt.plan.spoof_events = true;
  opt.plan.replay_events = true;
  opt.plan.corrupt_process = true;
  opt.flight = true;  // the audit reads the flight-recorder trace
  return opt;
}

TEST(ByzantineTest, DefendedRunStaysCleanUnderAttack) {
  chaos::ChaosResult r = chaos::ChaosEngine(byzantine_options(9)).run();

  EXPECT_TRUE(r.quiesced);
  for (const chaos::Violation& v : r.violations)
    ADD_FAILURE() << chaos::to_string(v);
  EXPECT_GT(r.byzantine_attacks, 0u) << "attacker never fired";
  EXPECT_GT(r.delivered, 0u);
}

TEST(ByzantineTest, AuditAccountsForEveryInjectedAttack) {
  chaos::ChaosResult r = chaos::ChaosEngine(byzantine_options(9)).run();
  ASSERT_TRUE(r.flight != nullptr);

  trace::Audit au = trace::audit(r.flight->records());
  EXPECT_EQ(au.attacks, r.byzantine_attacks)
      << "every performed attack must leave a ground-truth marker";
  EXPECT_GT(au.attacks, 0u);
  EXPECT_EQ(au.missed, 0u) << trace::render(au);
  EXPECT_TRUE(au.unattributed.empty()) << trace::render(au);
  EXPECT_TRUE(au.all_accounted());
  EXPECT_EQ(au.detected + au.lost, au.attacks);

  // Every finding is classified and attributed to a concrete fault id.
  for (const trace::AuditFinding& f : au.findings) {
    EXPECT_FALSE(f.cls.empty());
    EXPECT_GT(f.fault_id, 0u) << f.attack;
    EXPECT_FALSE(f.evidence.empty()) << f.attack;
  }
}

// Crash faults alongside the attacker exercise the `lost` accounting
// path: frames mutated in flight toward a down host die in the network
// before any detector sees them, and the audit must prove that instead
// of reporting a miss.
TEST(ByzantineTest, AuditAccountsForAttacksLostToCrashes) {
  chaos::EngineOptions opt = byzantine_options(1);
  opt.plan.crashes = true;
  chaos::ChaosResult r = chaos::ChaosEngine(opt).run();
  ASSERT_TRUE(r.flight != nullptr);

  for (const chaos::Violation& v : r.violations)
    ADD_FAILURE() << chaos::to_string(v);
  trace::Audit au = trace::audit(r.flight->records());
  EXPECT_GT(au.attacks, 0u);
  EXPECT_TRUE(au.all_accounted()) << trace::render(au);
  EXPECT_EQ(au.detected + au.lost, au.attacks);
}

// Same attacker, verification disarmed: the spoofed events sail through
// and the home actuates on fabricated provenance — the no-forged-actuation
// invariant must catch it. This is the control experiment proving the
// defended runs pass because of the integrity layer, not because the
// attacks were harmless.
TEST(ByzantineTest, UndefendedRunActuatesOnForgedEvents) {
  chaos::EngineOptions opt;
  opt.scenario.seed = 9;
  opt.plan.horizon = seconds(45);
  opt.plan.spoof_events = true;
  opt.byzantine_defense = false;
  chaos::ChaosResult r = chaos::ChaosEngine(opt).run();

  bool forged = false;
  for (const chaos::Violation& v : r.violations)
    if (v.invariant == "no-forged-actuation") forged = true;
  EXPECT_TRUE(forged)
      << "expected a forged actuation without the defense; got "
      << r.violations.size() << " violation(s)";
}

// Zero false positives: a run with no Byzantine categories armed audits
// to zero attacks and zero unattributed evidence (the CI golden gate).
TEST(ByzantineTest, NonAdversarialRunAuditsToZero) {
  chaos::EngineOptions opt;
  opt.scenario.seed = 3;
  opt.plan.horizon = seconds(45);
  opt.flight = true;
  chaos::ChaosResult r = chaos::ChaosEngine(opt).run();
  ASSERT_TRUE(r.flight != nullptr);

  EXPECT_EQ(r.byzantine_attacks, 0u);
  trace::Audit au = trace::audit(r.flight->records());
  EXPECT_EQ(au.attacks, 0u);
  EXPECT_EQ(au.findings.size(), 0u);
  EXPECT_TRUE(au.unattributed.empty());
  EXPECT_TRUE(au.all_accounted());
}

// Analyzer and audit output pinned by digest: any change to what
// analyze()/audit() conclude, or to how their reports render, changes a
// digest. The goldens audit to zero attacks, so the attacked runs of the
// tests above (seed 9, and seed 1 with crashes) carry the matcher.
// Order: render(analysis), render_json(analysis), render(audit),
// render_json(audit).
using ReportDigests = std::array<std::string, 4>;

ReportDigests report_digests(const std::vector<trace::Record>& records) {
  const trace::Analysis an = trace::analyze(records);
  const trace::Audit au = trace::audit(records);
  const std::string reports[4] = {trace::render(an), trace::render_json(an),
                                  trace::render(au), trace::render_json(au)};
  ReportDigests out;
  for (int i = 0; i < 4; ++i)
    out[i] = hash::fnv1a_digest(
        hash::fnv1a(reports[i].data(), reports[i].size()));
  return out;
}

void expect_digests(const std::vector<trace::Record>& records,
                    const ReportDigests& want, const std::string& what) {
  const ReportDigests got = report_digests(records);
  static const char* kReport[4] = {"analyze text", "analyze json",
                                   "audit text", "audit json"};
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(got[i], want[i]) << what << ": " << kReport[i];
}

TEST(AnalyzerOutputPin, Goldens) {
  const struct {
    const char* name;
    ReportDigests want;
  } kGoldens[] = {
      {"gapless_ring",
       {"492620f49a2b8900", "89ecb8be6e3ad0cb", "a0603772693cac43",
        "fb11fbcee48943f8"}},
      {"gap_chain",
       {"8fc863ea13a23cbb", "ba7557c19c9b6b6c", "8246cae90198282a",
        "f2c5ebf977ec3967"}},
      {"failover",
       {"cb8980669e4c4a03", "a62cf6f50dc1da4f", "fb72e3045f74bf5e",
        "6d73d8ccd020ac77"}},
      {"chaos_flight",
       {"1671641cdd0d77da", "58bfe9bab96c10fa", "4d225b4bc5aa70e9",
        "f39225fcb2f59c44"}},
  };
  for (const auto& g : kGoldens) {
    trace::Recorder rec;
    std::string err;
    ASSERT_TRUE(trace::Recorder::load(std::string(RIV_TRACE_GOLDEN_DIR) +
                                          "/" + g.name + ".rivtrace",
                                      &rec, &err))
        << err;
    expect_digests(rec.records(), g.want, g.name);
  }
}

TEST(AnalyzerOutputPin, AttackedRuns) {
  chaos::ChaosResult r9 = chaos::ChaosEngine(byzantine_options(9)).run();
  ASSERT_TRUE(r9.flight != nullptr);
  ASSERT_GT(r9.byzantine_attacks, 0u);
  expect_digests(r9.flight->records(),
                 {"2689f1960ec8ddc3", "51cbdd597ce8e457", "f8b30602e2c13e84",
                  "0a95464fc26e7266"},
                 "seed 9");

  chaos::EngineOptions opt = byzantine_options(1);
  opt.plan.crashes = true;
  chaos::ChaosResult r1 = chaos::ChaosEngine(opt).run();
  ASSERT_TRUE(r1.flight != nullptr);
  ASSERT_GT(r1.byzantine_attacks, 0u);
  expect_digests(r1.flight->records(),
                 {"45c930078285876a", "8b89232887236f94", "16eafcfbd352a1a9",
                  "9a6b9b90e1512c0f"},
                 "seed 1 with crashes");
}

}  // namespace
}  // namespace riv
