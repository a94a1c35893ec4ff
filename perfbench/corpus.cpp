// Seeded inputs.  The same seed always yields the same netlist texts;
// the program under test only ever sees the texts.

#include <algorithm>
#include <set>

#include "bench.hpp"
#include "liplib/graph/generators.hpp"
#include "liplib/graph/netlist_io.hpp"
#include "liplib/support/rng.hpp"

namespace perfbench {

namespace {

using liplib::Json;
using liplib::Rng;

// Distinct salts keep the workloads' input streams independent.
constexpr std::uint64_t kHotSalt = 0x686f74;
constexpr std::uint64_t kColdSalt = 0x636f6c64;
constexpr std::uint64_t kVerifySalt = 0x766572;

Design composite(Rng& rng, std::size_t segments, std::string name) {
  // Half stations only off-cycle: the composites are live by
  // construction, so every operation on them must succeed.
  auto g = liplib::graph::make_random_composite(
      rng, segments, /*allow_half=*/true, /*allow_half_in_loops=*/false);
  Design d;
  d.name = std::move(name);
  d.text = liplib::graph::write_netlist(g.topo);
  d.topo = std::move(g.topo);
  return d;
}

}  // namespace

std::vector<Design> hot_designs(std::uint64_t seed) {
  Rng rng(seed ^ kHotSalt);
  std::vector<Design> out;
  // Segment counts cycle through 6..12 instead of being drawn, and each
  // design is the middle-sized of five drawn composites, so the mix of
  // design sizes (and the cost of a hit, which re-parses the netlist) is
  // nearly the same for every seed; the seed still changes every design.
  for (std::size_t i = 0; i < 16; ++i) {
    std::vector<Design> draws;
    for (int k = 0; k < 5; ++k) {
      draws.push_back(composite(rng, 6 + i % 7, "hot/" + std::to_string(i)));
    }
    std::nth_element(draws.begin(), draws.begin() + 2, draws.end(),
                     [](const Design& a, const Design& b) {
                       return a.text.size() < b.text.size();
                     });
    out.push_back(std::move(draws[2]));
  }
  return out;
}

std::vector<Design> cold_designs(std::uint64_t seed, std::size_t n) {
  Rng rng(seed ^ kColdSalt);
  std::vector<Design> out;
  std::set<std::string> seen;
  while (out.size() < n) {
    Design d = composite(rng, 2 + out.size() % 3,
                         "cold/" + std::to_string(out.size()));
    // Every request must miss: drop a design whose canonical text repeats.
    if (seen.insert(d.text).second) out.push_back(std::move(d));
  }
  return out;
}

Design cold_warmup_design() {
  Rng rng(kColdSalt);
  return composite(rng, 5, "cold/warm-up");
}

std::vector<Design> verify_corpus(std::uint64_t seed,
                                  std::size_t composites) {
  Rng rng(seed ^ kVerifySalt);
  std::vector<Design> out;
  for (const std::size_t nominal : {2500u, 5000u}) {
    const std::size_t shells = nominal - 25 + rng.below(51);
    auto g = liplib::graph::make_pipeline(shells, 1,
                                          liplib::graph::RsKind::kHalf);
    Design d;
    d.name = "half_chain/" + std::to_string(shells);
    d.text = liplib::graph::write_netlist(g.topo);
    d.topo = std::move(g.topo);
    out.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < composites; ++i) {
    // 14-20 segments: below 14 the reachable space often closes inside
    // prove's default state budget, and the cost of one proof then swings
    // from milliseconds to seconds with the seed.  From 14 segments on,
    // auto nearly always exhausts the budget and induction decides.
    out.push_back(composite(rng, 14 + (i * 3) % 7,
                            "composite/" + std::to_string(i)));
  }
  return out;
}

std::vector<std::string> hot_requests(const std::vector<Design>& designs) {
  std::vector<std::string> out;
  for (const auto& d : designs) {
    out.push_back(Json::object()
                      .set("rpc", "liplib.rpc/1")
                      .set("kind", "lint")
                      .set("netlist", d.text)
                      .dump());
    // A small budget keeps warm-up short; timed requests are hits, whose
    // cost does not depend on the budget.
    out.push_back(Json::object()
                      .set("rpc", "liplib.rpc/1")
                      .set("kind", "screen")
                      .set("netlist", d.text)
                      .set("budget", std::uint64_t{4096})
                      .dump());
  }
  return out;
}

std::string cold_request(const Design& d) {
  return Json::object()
      .set("rpc", "liplib.rpc/1")
      .set("kind", "screen")
      .set("netlist", d.text)
      .dump();
}

}  // namespace perfbench
