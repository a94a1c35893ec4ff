// Differential suite for liplib::xir: the compiled scalar engine and
// the 64-way bit-sliced engine against the interpreted skeleton.
//
// The xir engines advertise *bit-exactness*, not approximation: same
// verdict, same settle cycle (transient + period), same exact Rational
// throughputs, same probe observations, same watchdog trip cycle.  The
// tests here hold all three evaluators together over hundreds of
// random "most general topology" instances (the same generator family
// the lint cross-check campaign uses), plus targeted checks for lane
// independence, probe/watchdog parity and the serve daemon's
// engine-keyed cache.

#include <gtest/gtest.h>

#include <cstdint>
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

    const auto interp = xir::analyze_with_engine(
        topo, opts, kBudget, xir::EngineMode::kInterp, worst_case);
    const auto compiled = xir::analyze_with_engine(
        topo, opts, kBudget, xir::EngineMode::kCompiled, worst_case);
    const auto sliced = xir::analyze_with_engine(
        topo, opts, kBudget, xir::EngineMode::kSliced, worst_case);

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
    const auto compiled = xir::screen_for_deadlock(
        topo, opts, 1u << 16, xir::EngineMode::kCompiled);
    const auto sliced = xir::screen_for_deadlock(
        topo, opts, 1u << 16, xir::EngineMode::kSliced);
    expect_same_verdict(interp, compiled, what + " compiled");
    expect_same_verdict(interp, sliced, what + " sliced");
  }
}

// The engine's own API surface (not just the analyze_with_engine
// wrapper): step/cycle/fires track the interpreter cycle by cycle.
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
    const auto interp = sk.analyze(1u << 12, kEnvPeriod);
    const auto compiled = eng.analyze(1u << 12, kEnvPeriod);
    const auto lane = sliced.analyze(1u << 12, kEnvPeriod)[0].result;
    ASSERT_TRUE(interp.found) << what;
    EXPECT_EQ(interp.transient, 3u) << what;
    expect_same_result(interp, compiled, what + " compiled");
    expect_same_result(interp, lane, what + " sliced");
  }
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

TEST(XirCampaign, MixScreenBatchesFoldInterpreterVerdicts) {
  Rng rng(5);
  const graph::Topology base =
      graph::make_random_composite(rng, 3, true, true).topo;

  auto run = [&](xir::EngineMode engine) {
    campaign::MixScreenSpec spec;
    spec.topo = base;
    spec.variants = 100;
    spec.engine = engine;
    campaign::EngineOptions eopts;
    eopts.threads = 2;
    eopts.cycle_budget = 1u << 14;
    return campaign::Engine(eopts).run(
        campaign::make_mix_screen_campaign(spec));
  };

  const auto interp = run(xir::EngineMode::kInterp);
  const auto compiled = run(xir::EngineMode::kCompiled);
  const auto sliced = run(xir::EngineMode::kSliced);

  // interp and compiled run one job per variant and must agree
  // elementwise — verdict, cycle count and exact throughput.
  ASSERT_EQ(interp.size(), 100u);
  ASSERT_EQ(compiled.size(), 100u);
  for (std::size_t v = 0; v < interp.size(); ++v) {
    EXPECT_EQ(interp[v].outcome, compiled[v].outcome) << v;
    EXPECT_EQ(interp[v].cycles, compiled[v].cycles) << v;
    EXPECT_EQ(interp[v].has_throughput, compiled[v].has_throughput) << v;
    EXPECT_EQ(interp[v].throughput, compiled[v].throughput) << v;
  }

  // sliced auto-batches 64 variants per job; each job folds its batch
  // to the worst per-variant outcome and the summed cycles.
  ASSERT_EQ(sliced.size(), 2u);  // ceil(100 / 64)
  auto severity = [](campaign::Outcome o) {
    switch (o) {
      case campaign::Outcome::kBudgetExhausted: return 3;
      case campaign::Outcome::kDeadlock: return 2;
      case campaign::Outcome::kStarvation: return 1;
      default: return 0;
    }
  };
  std::size_t lo = 0;
  for (const auto& job : sliced) {
    const std::size_t hi = std::min<std::size_t>(lo + 64, 100);
    int worst = 0;
    std::uint64_t cycles = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      worst = std::max(worst, severity(interp[v].outcome));
      cycles += interp[v].cycles;
    }
    EXPECT_EQ(severity(job.outcome), worst) << job.name;
    EXPECT_EQ(job.cycles, cycles) << job.name;
    lo = hi;
  }
}

TEST(XirCampaign, FuzzJobsEngineInvariant) {
  auto run = [](xir::EngineMode engine) {
    std::vector<campaign::Job> jobs;
    for (std::size_t i = 0; i < 20; ++i) {
      campaign::FuzzSpec spec;
      spec.shape = campaign::FuzzSpec::Shape::kComposite;
      spec.engine = engine;
      spec.check_equivalence = false;  // full-data path is engine-blind
      jobs.push_back(
          campaign::make_fuzz_job("fuzz/" + std::to_string(i), spec));
    }
    campaign::EngineOptions eopts;
    eopts.threads = 2;
    eopts.cycle_budget = 1u << 14;
    return campaign::Engine(eopts).run(jobs);
  };
  const auto interp = run(xir::EngineMode::kInterp);
  const auto compiled = run(xir::EngineMode::kCompiled);
  const auto sliced = run(xir::EngineMode::kSliced);
  for (std::size_t i = 0; i < interp.size(); ++i) {
    EXPECT_EQ(interp[i].outcome, compiled[i].outcome) << i;
    EXPECT_EQ(interp[i].outcome, sliced[i].outcome) << i;
    EXPECT_EQ(interp[i].cycles, compiled[i].cycles) << i;
    EXPECT_EQ(interp[i].cycles, sliced[i].cycles) << i;
    EXPECT_EQ(interp[i].throughput, compiled[i].throughput) << i;
    EXPECT_EQ(interp[i].throughput, sliced[i].throughput) << i;
  }
}

// ---- serve integration --------------------------------------------------

constexpr const char* kRingNetlist = R"(process A 1 1
process B 1 1
channel A.0 -> B.0 : F
channel B.0 -> A.0 : F
)";

std::string screen_request(const char* engine) {
  return Json::object()
      .set("rpc", serve::kRpcSchema)
      .set("kind", "screen")
      .set("netlist", kRingNetlist)
      .set("engine", engine)
      .dump();
}

TEST(XirServe, EngineKeysTheCacheAndCounters) {
  serve::ServeContext ctx;
  const std::string a1 = serve::handle_payload(screen_request("compiled"),
                                               ctx);
  const std::string a2 = serve::handle_payload(screen_request("compiled"),
                                               ctx);
  const std::string b1 = serve::handle_payload(screen_request("interp"),
                                               ctx);

  // Identical request → byte-identical cached answer; different engine
  // → a distinct cache entry (a fresh miss), not a hit on the other key.
  EXPECT_NE(a1.find("\"cached\":false"), std::string::npos);
  EXPECT_EQ(a2, a1.substr(0, a1.find("\"cached\":false")) +
                    "\"cached\":true" +
                    a1.substr(a1.find("\"cached\":false") + 14));
  EXPECT_NE(b1.find("\"cached\":false"), std::string::npos);

  // The per-engine split as the metrics registry counts it.
  auto lookups = [&ctx](const char* engine, const char* cache) {
    return ctx.registry.counter_value(
        "liplib_serve_engine_cache_lookups_total",
        {{"engine", engine}, {"cache", cache}});
  };
  EXPECT_EQ(lookups("compiled", "miss"), 1u);
  EXPECT_EQ(lookups("compiled", "hit"), 1u);
  EXPECT_EQ(lookups("interp", "miss"), 1u);
  EXPECT_EQ(lookups("interp", "hit"), 0u);

  // Engines agree on the verdict payload (only the echoed engine name
  // differs between the result documents).
  const Json ra = *Json::parse(a1).find("result");
  const Json rb = *Json::parse(b1).find("result");
  EXPECT_EQ(ra.find("verdict")->as_string(), rb.find("verdict")->as_string());
  EXPECT_EQ(ra.find("from_reset")->dump(), rb.find("from_reset")->dump());
  EXPECT_EQ(ra.find("worst_case")->dump(), rb.find("worst_case")->dump());
  EXPECT_EQ(ra.find("engine")->as_string(), "compiled");
  EXPECT_EQ(rb.find("engine")->as_string(), "interp");

  // The status document surfaces the per-engine traffic split.
  const Json status = ctx.status_json();
  const Json* engines = status.find("engines");
  ASSERT_NE(engines, nullptr);
  EXPECT_EQ(engines->find("compiled")->find("hits")->as_uint(), 1u);
  EXPECT_EQ(engines->find("compiled")->find("misses")->as_uint(), 1u);
  EXPECT_EQ(engines->find("interp")->find("misses")->as_uint(), 1u);
  EXPECT_EQ(engines->find("sliced")->find("misses")->as_uint(), 0u);
}

TEST(XirServe, UnknownEngineRejected) {
  serve::ServeContext ctx;
  const std::string resp = serve::handle_payload(
      Json::object()
          .set("rpc", serve::kRpcSchema)
          .set("kind", "screen")
          .set("netlist", kRingNetlist)
          .set("engine", "turbo")
          .dump(),
      ctx);
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(resp.find("unknown engine"), std::string::npos);
}

}  // namespace
