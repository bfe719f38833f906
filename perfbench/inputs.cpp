#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "config/parse.hpp"
#include "synth/scenarios.hpp"
#include "testkit/families.hpp"
#include "util/file.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ex = ns::explain;

std::vector<Network> PaperNetworks(const std::string& root) {
  std::vector<Network> networks;
  const ns::synth::Scenario s1 = ns::synth::Scenario1();
  networks.push_back(
      Network{s1.name, s1.topo, s1.spec, ns::synth::Scenario1PaperConfig()});
  for (int index : {2, 3}) {
    const std::string path = root + "/tests/golden/scenario" +
                             std::to_string(index) + "_solved.cfg";
    auto text = ns::util::ReadFile(path);
    auto solved = text.ok() ? ns::config::ParseNetworkConfig(text.value())
                            : ns::util::Result<ns::config::NetworkConfig>(
                                  text.error());
    if (!solved.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(),
                   solved.error().ToString().c_str());
      std::exit(2);
    }
    ns::synth::Scenario scenario = ns::synth::GetScenario(index);
    networks.push_back(Network{scenario.name, std::move(scenario.topo),
                               std::move(scenario.spec),
                               std::move(solved).value()});
  }
  return networks;
}

std::vector<ex::Selection> Selections(const Network& network) {
  std::vector<ex::Selection> selections;
  for (const auto& [router, config] : network.solved.routers) {
    if (config.route_maps.empty()) continue;
    selections.push_back(ex::Selection::Router(router));
    for (const auto& [map, route_map] : config.route_maps) {
      selections.push_back(ex::Selection::Map(router, map));
      for (const auto& entry : route_map.entries) {
        selections.push_back(ex::Selection::Entry(router, map, entry.seq));
      }
    }
  }
  return selections;
}

std::vector<ex::BatchRequest> ProjectedRequests(const Network& network) {
  std::vector<std::vector<std::string>> projections = {{}};
  for (const auto& requirement : network.spec.requirements) {
    projections.push_back({requirement.name});
  }
  std::vector<ex::BatchRequest> requests;
  for (const auto& projection : projections) {
    for (const ex::Selection& selection : Selections(network)) {
      ex::BatchRequest request;
      request.selection = selection;
      request.requirements = projection;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

ex::LiftMode GoldenMode(const std::string& scenario) {
  return scenario == "S1" ? ex::LiftMode::kFaithful : ex::LiftMode::kExact;
}

std::vector<Question> PaperQuestions(const std::vector<Network>& networks,
                                     std::uint64_t seed) {
  SeededRng rng(seed);
  std::vector<Question> questions;
  for (const Network& network : networks) {
    for (const ex::BatchRequest& request : ProjectedRequests(network)) {
      if (!request.requirements.empty() && network.name != "S3") continue;
      Question question{network.name, request};
      const bool router_level = !request.selection.route_map.has_value();
      question.request.mode =
          router_level ? GoldenMode(network.name)
                       : (rng.Next() & 1 ? ex::LiftMode::kExact
                                         : ex::LiftMode::kFaithful);
      questions.push_back(std::move(question));
    }
  }
  return questions;
}

std::vector<FamilyNetwork> FamilyNetworks() {
  using ns::testkit::Family;
  // WAN wirings are the generator's seed-1 draws: the cost of one wiring
  // ranges over 20x at a fixed size, so drawing them per run would make
  // the run-to-run spread the spread of the draw.
  const std::pair<Family, int> instances[] = {
      {Family::kWan, 12},     {Family::kWan, 16},    {Family::kWan, 20},
      {Family::kWan, 24},     {Family::kOspfMix, 6}, {Family::kOspfMix, 10},
      {Family::kFatTree, 2},
  };
  std::vector<FamilyNetwork> networks;
  for (const auto& [family_kind, size] : instances) {
    ns::testkit::FamilyProblem problem =
        ns::testkit::MakeFamilyProblem(family_kind, size);
    FamilyNetwork family;
    family.network = Network{problem.label, std::move(problem.topo),
                             std::move(problem.spec),
                             std::move(problem.solved)};
    family.max_hops = problem.max_hops;
    for (const auto& [router, config] : family.network.solved.routers) {
      if (config.route_maps.empty()) continue;
      Question question{family.network.name, {}};
      question.request.selection = ex::Selection::Router(router);
      question.request.mode = ex::LiftMode::kExact;
      family.questions.push_back(std::move(question));
    }
    networks.push_back(std::move(family));
  }
  return networks;
}

void ParallelFor(std::size_t count, int threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
}

}  // namespace perfbench
