// The benchmark's inputs and workloads.
//
//   paper-cold   offline survey of the three paper scenarios through
//                BatchExplain (4 workers, one fresh ArenaRegistry per
//                scenario): every answer pays the full cold prefix.
//   family-lift  one caller asking hop-bounded questions about
//                family-scale networks through Explainer::Explain +
//                Lifter::Lift: no threads, arena, cache or sockets.
//   serve-mix    an in-process epoll serve::Server driven open-loop over
//                its socket: cache hits, cold and warm computed answers,
//                and scenario loads beside the reads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Scenario 1 with the paper's Fig. 1c configuration, scenarios 2 and 3
/// with their checked-in solved configurations (tests/golden/).
std::vector<Network> PaperNetworks(const std::string& root);

/// Every router, route-map and entry selection of a network's
/// policy-carrying routers, in deterministic order.
std::vector<ns::explain::Selection> Selections(const Network& network);

/// Every selection of a network over the whole spec and over each single
/// requirement (mode left at its default): serve-mix's question pool, and
/// with both modes the expected-answer table's paper keys.
std::vector<ns::explain::BatchRequest> ProjectedRequests(const Network& network);

/// The lift mode the golden documents pin for a scenario's router-level
/// answers: faithful for S1, exact otherwise.
ns::explain::LiftMode GoldenMode(const std::string& scenario);

/// paper-cold's questions: each selection once over the whole spec, and
/// for S3 once more per single requirement. Router-level questions use
/// the golden mode; every other question's mode is drawn from `seed`.
std::vector<Question> PaperQuestions(const std::vector<Network>& networks,
                                     std::uint64_t seed);

/// family-lift's networks and their encoder hop bounds.
struct FamilyNetwork {
  Network network;
  int max_hops = 0;
  std::vector<Question> questions;
};
std::vector<FamilyNetwork> FamilyNetworks();

/// Runs fn(0..count-1) on `threads` workers; returns after all finished.
void ParallelFor(std::size_t count, int threads,
                 const std::function<void(std::size_t)>& fn);

RunResult RunPaperCold(const Args& args, const Expected& expected);
RunResult RunFamilyLift(const Args& args, const Expected& expected);
RunResult RunServeMix(const Args& args, const Expected& expected);

/// Writes the expected-answer table: every answer any seed of any
/// workload can ask for, computed through AnswerRequest.
int RecordExpected(const Args& args, const std::string& out_path);

}  // namespace perfbench
