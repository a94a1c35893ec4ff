// Differential suite for liplib::xir: the compiled scalar engine and
// the 64-way bit-sliced engine against the interpreted skeleton.
//
// The xir engines advertise *bit-exactness*, not approximation: same
// verdict, same settle cycle (transient + period), same exact Rational
// throughputs, same probe observations, same watchdog trip cycle.  The
// tests here hold all three evaluators together over hundreds of
// random "most general topology" instances (the same generator family
// the lint cross-check campaign uses), plus targeted checks for lane
// independence, probe/watchdog parity, campaign jobs against the
// interpreter and the serve daemon's single evaluator.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "liplib/campaign/campaign.hpp"
#include "liplib/campaign/jobs.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/probe/probe.hpp"
#include "liplib/serve/server.hpp"
#include "liplib/skeleton/skeleton.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/rng.hpp"
#include "liplib/telemetry/watchdog.hpp"
#include "liplib/xir/sliced.hpp"
#include "liplib/xir/xir.hpp"

using namespace liplib;

namespace {

// The lint cross-check generator's recipe: a random composite whose
// half stations may sit on loops for half the draws, so live, starved
// and deadlocked dynamics all appear in the corpus.
graph::Topology random_composite(std::uint64_t seed,
                                 std::size_t max_segments = 4) {
  Rng rng(seed);
  const std::size_t segments = 1 + rng.below(max_segments);
  const bool risky = rng.chance(1, 2);
  return graph::make_random_composite(rng, segments, /*allow_half=*/true,
                                      /*allow_half_in_loops=*/risky)
      .topo;
}

void expect_same_result(const skeleton::SkeletonResult& want,
                        const skeleton::SkeletonResult& got,
                        const std::string& what) {
  EXPECT_EQ(want.found, got.found) << what;
  EXPECT_EQ(want.transient, got.transient) << what;
  EXPECT_EQ(want.period, got.period) << what;
  EXPECT_EQ(want.deadlocked, got.deadlocked) << what;
  EXPECT_EQ(want.has_starved_shell, got.has_starved_shell) << what;
  EXPECT_EQ(want.shell_ids, got.shell_ids) << what;
  ASSERT_EQ(want.shell_throughput.size(), got.shell_throughput.size())
      << what;
  for (std::size_t i = 0; i < want.shell_throughput.size(); ++i) {
    EXPECT_EQ(want.shell_throughput[i], got.shell_throughput[i])
        << what << " shell " << i;
  }
  EXPECT_EQ(want.system_throughput(), got.system_throughput()) << what;
}

void expect_same_verdict(const skeleton::ScreeningVerdict& want,
                         const skeleton::ScreeningVerdict& got,
                         const std::string& what) {
  EXPECT_EQ(want.ran_to_steady_state, got.ran_to_steady_state) << what;
  EXPECT_EQ(want.deadlock_found, got.deadlock_found) << what;
  EXPECT_EQ(want.transient, got.transient) << what;
  EXPECT_EQ(want.period, got.period) << what;
  EXPECT_EQ(want.cycles_simulated, got.cycles_simulated) << what;
  EXPECT_EQ(want.min_throughput, got.min_throughput) << what;
  EXPECT_EQ(want.starved, got.starved) << what;
}

// Variant kinds are drawn in program station order (channel-major);
// writing them back channel-major reconstructs the variant topology the
// sliced lane evaluates.
graph::Topology with_station_kinds(const graph::Topology& topo,
                                   const std::vector<graph::RsKind>& kinds) {
  graph::Topology out = topo;
  std::size_t next = 0;
  for (graph::ChannelId c = 0; c < out.channels().size(); ++c) {
    for (auto& k : out.channel_mut(c).stations) k = kinds.at(next++);
  }
  EXPECT_EQ(next, kinds.size());
  return out;
}

// A steady-state analysis and the cycles it simulated.
struct Analyzed {
  skeleton::SkeletonResult result;
  std::uint64_t cycles = 0;
};

// The interpreter (the oracle) or the ScalarEngine: one API.
template <typename Evaluator>
Analyzed analyze_on(const graph::Topology& topo,
                    skeleton::SkeletonOptions opts, bool worst_case,
                    std::uint64_t budget) {
  Evaluator eng(topo, opts);
  if (worst_case) eng.saturate_stations();
  Analyzed a;
  a.result = eng.analyze(budget);
  a.cycles = eng.cycle();
  return a;
}

// The same scenario in lane 0 of a one-lane SlicedEngine.
Analyzed analyze_one_lane(const graph::Topology& topo,
                          skeleton::SkeletonOptions opts, bool worst_case,
                          std::uint64_t budget) {
  xir::SlicedEngine eng(topo, opts, /*num_lanes=*/1);
  if (worst_case) eng.saturate_stations(1ull);
  auto lanes = eng.analyze(budget);
  return {std::move(lanes[0].result), lanes[0].cycles};
}

// ---- the 300-topology differential -------------------------------------

TEST(XirDifferential, ThreeHundredRandomComposites) {
  constexpr std::uint64_t kBudget = 1u << 16;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::uint64_t seed = campaign::job_seed(7, i);
    const graph::Topology topo = random_composite(seed);
    skeleton::SkeletonOptions opts;
    opts.policy = (i % 2) ? lip::StopPolicy::kCarloniStrict
                          : lip::StopPolicy::kCasuDiscardOnVoid;
    const bool worst_case = (i % 3) == 0;
    const std::string what = "topology " + std::to_string(i);

    const auto interp =
        analyze_on<skeleton::Skeleton>(topo, opts, worst_case, kBudget);
    const auto compiled =
        analyze_on<xir::ScalarEngine>(topo, opts, worst_case, kBudget);
    const auto sliced = analyze_one_lane(topo, opts, worst_case, kBudget);

    expect_same_result(interp.result, compiled.result, what + " compiled");
    expect_same_result(interp.result, sliced.result, what + " sliced");
    EXPECT_EQ(interp.cycles, compiled.cycles) << what;
    EXPECT_EQ(interp.cycles, sliced.cycles) << what;
  }
}

TEST(XirDifferential, ScreeningVerdictsAgree) {
  for (std::uint64_t i = 0; i < 60; ++i) {
    const graph::Topology topo = random_composite(campaign::job_seed(11, i));
    skeleton::ScreeningOptions opts;
    opts.worst_case_occupancy = (i % 2) == 0;
    const std::string what = "topology " + std::to_string(i);

    const auto interp = skeleton::screen_for_deadlock(topo, opts, 1u << 16);
    const auto compiled = xir::screen_for_deadlock(topo, opts, 1u << 16);
    xir::VariantSpec lane0;
    lane0.worst_case_occupancy = opts.worst_case_occupancy;
    const auto sliced =
        xir::screen_variants(topo, {lane0}, opts.skeleton, 1u << 16)[0];
    expect_same_verdict(interp, compiled, what + " compiled");
    expect_same_verdict(interp, sliced, what + " sliced");
  }
}

// The engine's own API surface (not just analyze): step/cycle/fires
// track the interpreter cycle by cycle.
TEST(XirDifferential, StepLevelFireCounts) {
  const graph::Topology topo = random_composite(42);
  skeleton::SkeletonOptions opts;
  skeleton::Skeleton sk(topo, opts);
  xir::ScalarEngine eng(topo, opts);
  for (int c = 0; c < 200; ++c) {
    sk.step();
    eng.step();
  }
  EXPECT_EQ(sk.cycle(), eng.cycle());
  for (graph::NodeId n = 0; n < topo.nodes().size(); ++n) {
    if (topo.node(n).kind != graph::NodeKind::kProcess) continue;
    EXPECT_EQ(sk.fires(n), eng.fires(n)) << topo.node(n).name;
  }
}

// ---- sliced lane independence -------------------------------------------

TEST(XirSliced, LaneSignatureMatchesScalarEveryCycle) {
  const graph::Topology topo = random_composite(99);
  skeleton::SkeletonOptions opts;
  xir::ScalarEngine scalar(topo, opts);
  xir::SlicedEngine sliced(topo, opts);
  for (int c = 0; c < 100; ++c) {
    for (std::size_t lane : {std::size_t{0}, std::size_t{17},
                             std::size_t{63}}) {
      EXPECT_EQ(scalar.state_signature(), sliced.lane_signature(lane))
          << "cycle " << c << " lane " << lane;
    }
    scalar.step();
    sliced.step();
  }
}

// A source fanning out to 12 sinks, 4 of them with periodic stop
// patterns.  Placed on branches 8..11, the evolving part of the source's
// pending mask lies above bit 7: a one-byte source mask in the state
// signature reports a false repeat after 1 cycle, while the full state
// settles after 3 — wherever the patterned branches sit.
TEST(XirSignature, WideSourceFanoutKeepsEveryPendingBit) {
  const std::vector<std::vector<bool>> patterns = {
      {true, true, false}, {false, true, true}, {true},
      {true, false, true, true}};
  constexpr std::uint64_t kEnvPeriod = 12;  // lcm(3, 3, 1, 4)
  for (const std::size_t first : {std::size_t{0}, std::size_t{8}}) {
    graph::Topology topo;
    const graph::NodeId src = topo.add_source("src");
    std::vector<graph::NodeId> sinks;
    for (std::size_t b = 0; b < 12; ++b) {
      sinks.push_back(topo.add_sink("k" + std::to_string(b)));
      topo.connect({src, 0}, {sinks.back(), 0});
    }
    skeleton::Skeleton sk(topo);
    xir::ScalarEngine eng(topo);
    xir::SlicedEngine sliced(topo, {}, 1);
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      sk.set_sink_pattern(sinks[first + i], patterns[i]);
      eng.set_sink_pattern(sinks[first + i], patterns[i]);
      sliced.set_sink_pattern(sinks[first + i], patterns[i]);
    }
    ASSERT_EQ(sk.env_period(), kEnvPeriod);
    ASSERT_EQ(eng.env_period(), kEnvPeriod);
    const std::string what = "patterns on branches " + std::to_string(first) +
                             ".." + std::to_string(first + 3);
    const auto interp = sk.analyze(1u << 12);
    const auto compiled = eng.analyze(1u << 12);
    const auto lane = sliced.analyze(1u << 12)[0].result;
    ASSERT_TRUE(interp.found) << what;
    EXPECT_EQ(interp.transient, 3u) << what;
    expect_same_result(interp, compiled, what + " compiled");
    expect_same_result(interp, lane, what + " sliced");
  }
}

// A sink environment longer than 256 cycles: src -> a -> out through
// full stations, the sink stopping only at position 300 of a 512-long
// pattern.  The protocol state repeats every cycle except around the
// stop, so a phase key truncated to one byte aliases phases 256 apart
// and reports period 256 at full throughput; the whole phase gives the
// true period 512 and one lost cycle per period.
TEST(XirSignature, EnvironmentPhaseBeyondOneByte) {
  graph::Topology topo;
  const graph::NodeId src = topo.add_source("src");
  const graph::NodeId a = topo.add_process("a", 1, 1);
  const graph::NodeId out = topo.add_sink("out");
  topo.connect({src, 0}, {a, 0}, {graph::RsKind::kFull});
  topo.connect({a, 0}, {out, 0}, {graph::RsKind::kFull});
  std::vector<bool> pattern(512, false);
  pattern[300] = true;
  constexpr std::uint64_t kEnvPeriod = 512;

  skeleton::Skeleton sk(topo);
  xir::ScalarEngine eng(topo);
  xir::SlicedEngine sliced(topo, {}, 1);
  sk.set_sink_pattern(out, pattern);
  eng.set_sink_pattern(out, pattern);
  sliced.set_sink_pattern(out, pattern);
  ASSERT_EQ(sk.env_period(), kEnvPeriod);
  ASSERT_EQ(eng.env_period(), kEnvPeriod);

  const auto interp = sk.analyze(1u << 14);
  const auto compiled = eng.analyze(1u << 14);
  const auto lane = sliced.analyze(1u << 14)[0].result;
  for (const auto* r : {&interp, &compiled, &lane}) {
    ASSERT_TRUE(r->found);
    EXPECT_EQ(r->period, kEnvPeriod);
    EXPECT_EQ(r->system_throughput(), Rational(511, 512));
  }
  expect_same_result(interp, compiled, "compiled");
  expect_same_result(interp, lane, "sliced");
}

// ---- the constant-memory steady-state search ----------------------------

/// The window 2^k of Brent's detecting checkpoint 2^k - 1 for a run from
/// cycle 0 with transient `mu` and period `lambda`: the first checkpoint
/// past the transient whose window holds the period.
std::uint64_t brent_window(std::uint64_t mu, std::uint64_t lambda) {
  std::uint64_t w = 1;
  while (w - 1 < mu || w < lambda) w *= 2;
  return w;
}

TEST(XirSteadyState, BrentSearchMatchesTheMapOracle) {
  // Pipelines of full or half stations under greedy and patterned sinks
  // give transients of 2^k - 1, 2^k and 2^k + 1 cycles (asserted below
  // for k = 2..6); closed rings are periodic from reset with periods
  // longer than the window before the one that detects them.  Each
  // design is analyzed from reset and from cycle 5, under the default
  // budget and under budgets of exactly transient + period (found) and
  // one cycle less (not found).
  struct Design {
    graph::Generated gen;
    std::vector<bool> pattern;  // of sink 0; empty = greedy
    std::string what;
  };
  std::vector<Design> designs;
  const std::vector<std::vector<bool>> patterns = {
      {}, {false, true}, {false, false, true}};
  for (const auto kind : {graph::RsKind::kFull, graph::RsKind::kHalf}) {
    for (std::size_t st = 1; st <= 3; ++st) {
      for (std::size_t n = 1; n <= 21; ++n) {
        for (std::size_t pat = 0; pat < patterns.size(); ++pat) {
          designs.push_back(
              {graph::make_pipeline(n, st, kind), patterns[pat],
               "pipeline n=" + std::to_string(n) + " st=" +
                   std::to_string(st) +
                   (kind == graph::RsKind::kHalf ? " half" : " full") +
                   " pattern " + std::to_string(pat)});
        }
      }
    }
  }
  for (std::size_t a = 1; a <= 6; ++a) {
    for (std::size_t b = 1; b <= 6; ++b) {
      designs.push_back({graph::make_closed_ring({a, b, 1}), {},
                         "ring " + std::to_string(a) + "/" +
                             std::to_string(b)});
    }
  }

  std::set<std::uint64_t> transients;
  int from_earlier_checkpoint = 0, from_start = 0;
  for (const Design& d : designs) {
    const graph::Topology& topo = d.gen.topo;
    auto run_both = [&](std::uint64_t start, std::uint64_t budget,
                        const std::string& what) {
      skeleton::Skeleton sk(topo);
      xir::ScalarEngine eng(topo);
      if (!d.pattern.empty()) {
        sk.set_sink_pattern(d.gen.sinks[0], d.pattern);
        eng.set_sink_pattern(d.gen.sinks[0], d.pattern);
      }
      sk.run(start);
      eng.run(start);
      const auto want = sk.analyze(budget);
      const auto got = eng.analyze(budget);
      expect_same_result(want, got, what);
      EXPECT_EQ(sk.cycle(), eng.cycle()) << what;
      for (graph::NodeId v : d.gen.processes) {
        EXPECT_EQ(sk.fires(v), eng.fires(v)) << what << " node " << v;
      }
      return want;
    };
    for (const std::uint64_t start : {0u, 5u}) {
      const std::string what = d.what + " from cycle " + std::to_string(start);
      const auto steady = run_both(start, 1u << 16, what);
      ASSERT_TRUE(steady.found) << what;
      const std::uint64_t closes = steady.transient + steady.period - start;
      EXPECT_TRUE(run_both(start, closes, what + " budget mu+lambda").found)
          << what;
      EXPECT_FALSE(
          run_both(start, closes - 1, what + " budget mu+lambda-1").found)
          << what;
      if (start != 0) continue;
      transients.insert(steady.transient);
      const std::uint64_t w = brent_window(steady.transient, steady.period);
      if (w == 1) continue;
      if (steady.period > w / 2) {
        ++from_start;  // the period outgrew the previous window
      } else {
        ++from_earlier_checkpoint;
      }
    }
  }
  for (std::uint64_t k = 2; k <= 6; ++k) {
    for (const std::uint64_t mu :
         {(1ull << k) - 1, 1ull << k, (1ull << k) + 1}) {
      EXPECT_EQ(transients.count(mu), 1u) << "no design with transient " << mu;
    }
  }
  EXPECT_GT(from_start, 0);
  EXPECT_GT(from_earlier_checkpoint, 0);
}

/// Peak resident set of this process, in KiB (0 when unreadable).
std::int64_t vm_hwm_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

TEST(XirSteadyState, SearchMemoryDoesNotGrowWithTheTransient) {
  // A 2,500-shell half-station chain has a 5,001-cycle transient; a
  // search that remembered every visited state would hold ~5,000
  // signatures and fire-count vectors (~150 MB).  ctest runs each test
  // in its own process, so VmHWM is this search's peak.
  const auto gen = graph::make_pipeline(2500, 1, graph::RsKind::kHalf);
  xir::ScalarEngine eng(gen.topo);
  const auto r = eng.analyze();
  ASSERT_TRUE(r.found);
  EXPECT_GT(r.transient, 5000u);
  EXPECT_EQ(eng.cycle(), r.transient + r.period);
  const std::int64_t hwm_mib = vm_hwm_kib() / 1024;
  ASSERT_GT(vm_hwm_kib(), 0);
  EXPECT_LT(hwm_mib, 64) << "peak RSS " << hwm_mib << " MiB";
}

TEST(XirSliced, SixtyFourVariantLanesMatchInterpreter) {
  // A composite with loops so half-station variants actually diverge
  // (some lanes deadlock from worst-case occupancy, others stay live).
  Rng rng(5);
  const graph::Topology base =
      graph::make_random_composite(rng, 3, true, true).topo;
  ASSERT_GT(base.total_stations(), 0u);

  std::vector<xir::VariantSpec> variants(64);
  for (std::size_t v = 0; v < 64; ++v) {
    variants[v].kinds = campaign::mix_screen_variant_kinds(base, 1, v);
    variants[v].worst_case_occupancy = true;
  }
  const auto batched = xir::screen_variants(base, variants, {}, 1u << 14);
  ASSERT_EQ(batched.size(), 64u);

  bool saw_deadlock = false, saw_live = false;
  for (std::size_t v = 0; v < 64; ++v) {
    const graph::Topology variant =
        with_station_kinds(base, variants[v].kinds);
    skeleton::ScreeningOptions opts;
    opts.worst_case_occupancy = true;
    const auto interp = skeleton::screen_for_deadlock(variant, opts,
                                                      1u << 14);
    expect_same_verdict(interp, batched[v], "variant " + std::to_string(v));
    (interp.deadlock_found ? saw_deadlock : saw_live) = true;
  }
  // The corpus must exercise both verdicts or the test proves nothing.
  EXPECT_TRUE(saw_deadlock);
  EXPECT_TRUE(saw_live);
}

// ---- probe and watchdog parity ------------------------------------------

TEST(XirProbe, ReportMatchesInterpreter) {
  const graph::Topology topo = random_composite(123);
  skeleton::SkeletonOptions opts;

  skeleton::Skeleton sk(topo, opts);
  probe::Probe sk_probe;
  sk.attach_probe(sk_probe);
  sk.run(300);

  xir::ScalarEngine eng(topo, opts);
  probe::Probe eng_probe;
  eng.attach_probe(eng_probe);
  eng.run(300);

  EXPECT_EQ(sk_probe.report().to_json().dump(),
            eng_probe.report().to_json().dump());
}

TEST(XirWatchdog, TripCycleMatchesInterpreter) {
  // A half-station loop saturated from worst-case occupancy: the
  // paper's latent stop latch, guaranteed to freeze.
  const graph::Topology topo =
      graph::make_ring_with_tap(1, 1, graph::RsKind::kHalf).topo;

  telemetry::Watchdog dog_sk{};
  skeleton::Skeleton sk(topo, {});
  sk.saturate_stations();
  dog_sk.attach(sk);
  const auto run_sk = telemetry::run_guarded(sk, dog_sk, 4096);

  telemetry::Watchdog dog_eng{};
  xir::ScalarEngine eng(topo, {});
  eng.saturate_stations();
  dog_eng.attach(eng);
  const auto run_eng = telemetry::run_guarded(eng, dog_eng, 4096);

  ASSERT_TRUE(dog_sk.tripped());
  ASSERT_TRUE(dog_eng.tripped());
  EXPECT_EQ(run_sk.cycles, run_eng.cycles);
  EXPECT_EQ(dog_sk.reason(), dog_eng.reason());
  EXPECT_EQ(dog_sk.trip_cycle(), dog_eng.trip_cycle());
  EXPECT_EQ(dog_sk.no_progress_since(), dog_eng.no_progress_since());
}

// ---- campaign integration -----------------------------------------------

// The campaign outcome of one screening verdict, derived independently
// of campaign::make_screening_job.
campaign::Outcome screening_outcome(const skeleton::ScreeningVerdict& v) {
  if (!v.ran_to_steady_state) return campaign::Outcome::kBudgetExhausted;
  if (!v.deadlock_found) return campaign::Outcome::kLive;
  return !v.starved.empty() && v.min_throughput > Rational(0)
             ? campaign::Outcome::kStarvation
             : campaign::Outcome::kDeadlock;
}

TEST(XirCampaign, MixScreenBatchesFoldInterpreterVerdicts) {
  Rng rng(5);
  const graph::Topology base =
      graph::make_random_composite(rng, 3, true, true).topo;
  constexpr std::size_t kVariants = 100;

  campaign::MixScreenSpec spec;
  spec.topo = base;
  spec.variants = kVariants;
  campaign::EngineOptions eopts;
  eopts.threads = 2;
  eopts.base_seed = 1;
  eopts.cycle_budget = 1u << 14;
  const auto jobs = campaign::Engine(eopts).run(
      campaign::make_mix_screen_campaign(spec));

  // The oracle: every variant screened on its own by the interpreter.
  std::vector<skeleton::ScreeningVerdict> oracle;
  skeleton::ScreeningOptions wc;
  wc.worst_case_occupancy = true;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const auto kinds =
        campaign::mix_screen_variant_kinds(base, eopts.base_seed, v);
    oracle.push_back(skeleton::screen_for_deadlock(
        with_station_kinds(base, kinds), wc, eopts.cycle_budget));
  }

  // 64 variants per job; each job folds its batch to the worst
  // per-variant outcome, the summed cycles and the minimum throughput,
  // and tallies every lane's outcome in its detail.
  ASSERT_EQ(jobs.size(), 2u);  // ceil(100 / 64)
  auto severity = [](campaign::Outcome o) {
    switch (o) {
      case campaign::Outcome::kBudgetExhausted: return 3;
      case campaign::Outcome::kDeadlock: return 2;
      case campaign::Outcome::kStarvation: return 1;
      default: return 0;
    }
  };
  std::size_t lo = 0;
  std::set<campaign::Outcome> seen;
  for (const auto& job : jobs) {
    const std::size_t hi = std::min<std::size_t>(lo + 64, kVariants);
    int worst = 0;
    std::uint64_t cycles = 0;
    Rational min_throughput(1);
    std::map<std::string, std::size_t> tally;
    for (std::size_t v = lo; v < hi; ++v) {
      const campaign::Outcome o = screening_outcome(oracle[v]);
      seen.insert(o);
      worst = std::max(worst, severity(o));
      cycles += oracle[v].cycles_simulated;
      if (oracle[v].min_throughput < min_throughput) {
        min_throughput = oracle[v].min_throughput;
      }
      ++tally[campaign::outcome_name(o)];
    }
    std::string detail = "variants " + std::to_string(lo) + ".." +
                         std::to_string(hi - 1) + ":";
    for (const auto& [name, count] : tally) {
      detail += " " + name + "=" + std::to_string(count);
    }
    EXPECT_EQ(severity(job.outcome), worst) << job.name;
    EXPECT_EQ(job.cycles, cycles) << job.name;
    EXPECT_TRUE(job.has_throughput) << job.name;
    EXPECT_EQ(job.throughput, min_throughput) << job.name;
    EXPECT_EQ(job.detail, detail) << job.name;
    lo = hi;
  }
  // Both verdicts appear, or the fold is untested.
  EXPECT_TRUE(seen.count(campaign::Outcome::kLive));
  EXPECT_TRUE(seen.count(campaign::Outcome::kDeadlock) ||
              seen.count(campaign::Outcome::kStarvation));
}

// Each fuzz job against the interpreter's analysis of the same
// topology, rebuilt from the job's seed with the composite fuzz recipe
// (segments = 1 + below(size), halves kept off loops).
TEST(XirCampaign, FuzzJobsEngineInvariant) {
  for (const auto policy : {lip::StopPolicy::kCasuDiscardOnVoid,
                            lip::StopPolicy::kCarloniStrict}) {
    campaign::FuzzSpec spec;
    spec.shape = campaign::FuzzSpec::Shape::kComposite;
    spec.policy = policy;
    spec.check_equivalence = false;  // the full-data path runs no skeleton
    std::vector<campaign::Job> jobs;
    for (std::size_t i = 0; i < 20; ++i) {
      jobs.push_back(
          campaign::make_fuzz_job("fuzz/" + std::to_string(i), spec));
    }
    campaign::EngineOptions eopts;
    eopts.threads = 2;
    eopts.base_seed = 1;
    eopts.cycle_budget = 1u << 14;
    const auto results = campaign::Engine(eopts).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());

    for (std::size_t i = 0; i < results.size(); ++i) {
      Rng rng(campaign::job_seed(eopts.base_seed, i));
      const std::size_t segments = 1 + rng.below(spec.size);
      const graph::Topology topo =
          graph::make_random_composite(rng, segments, /*allow_half=*/true,
                                       /*allow_half_in_loops=*/false)
              .topo;
      skeleton::SkeletonOptions opts;
      opts.policy = policy;
      const auto want = analyze_on<skeleton::Skeleton>(
          topo, opts, /*worst_case=*/false, eopts.cycle_budget);
      const auto& got = results[i];
      const std::string what = "job " + std::to_string(i);
      EXPECT_EQ(got.cycles, want.cycles) << what;
      ASSERT_TRUE(want.result.found) << what;
      EXPECT_EQ(got.transient, want.result.transient) << what;
      EXPECT_EQ(got.period, want.result.period) << what;
      EXPECT_EQ(got.throughput, want.result.system_throughput()) << what;
      const campaign::Outcome outcome =
          want.result.deadlocked           ? campaign::Outcome::kDeadlock
          : want.result.has_starved_shell ? campaign::Outcome::kStarvation
                                          : campaign::Outcome::kLive;
      EXPECT_EQ(got.outcome, outcome) << what << ": " << got.detail;
    }
  }
}

// ---- serve integration --------------------------------------------------

constexpr const char* kRingNetlist = R"(process A 1 1
process B 1 1
channel A.0 -> B.0 : F
channel B.0 -> A.0 : F
)";

std::string screen_request(const char* engine) {
  Json doc = Json::object()
                 .set("rpc", serve::kRpcSchema)
                 .set("kind", "screen")
                 .set("netlist", kRingNetlist);
  if (engine) doc.set("engine", engine);
  return doc.dump();
}

// The engine member of a request names no evaluator: any value (even
// an unknown one) or none at all is answered from the one cache entry
// of the design and budget, byte-identically.
TEST(XirServe, EngineFieldSharesOneCacheEntry) {
  serve::ServeContext ctx;
  const std::string first = serve::handle_payload(screen_request("interp"),
                                                  ctx);
  const std::size_t flag = first.find("\"cached\":false");
  ASSERT_NE(flag, std::string::npos) << first;
  const std::string want_hit =
      first.substr(0, flag) + "\"cached\":true" + first.substr(flag + 14);
  for (const char* engine : {"compiled", "sliced", "turbo",
                             static_cast<const char*>(nullptr)}) {
    EXPECT_EQ(serve::handle_payload(screen_request(engine), ctx), want_hit)
        << (engine ? engine : "(no engine member)");
  }

  const Json result = *Json::parse(first).find("result");
  EXPECT_EQ(result.find("verdict")->as_string(), "live");
  EXPECT_EQ(result.find("engine")->as_string(), serve::Request::engine);

  const Json status = ctx.status_json();
  EXPECT_EQ(status.find("schema")->as_string(), "liplib.serve.status/3");
  EXPECT_EQ(status.find("engines"), nullptr);
  EXPECT_EQ(status.find("cache")->find("misses")->as_uint(), 1u);
  EXPECT_EQ(status.find("cache")->find("hits")->as_uint(), 4u);
  EXPECT_EQ(status.find("cache")->find("entries")->as_uint(), 1u);
}

}  // namespace
