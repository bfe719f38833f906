// In-memory span recorder and the traced answer paths.
//
// Spans are recorded from the benchmark's own code around each call into
// a layer (the library itself carries no instrumentation): name, start,
// end, parent span and question id. They stay in memory until the run
// ends; a layer's self time is its span minus the part its child spans
// cover.
//
// Span names are the stage vocabulary of the per-layer metrics:
//   answer                 one question, as a user waits for it
//     explain.arena.build    ArenaRegistry::GetOrBuild on a new key
//     lift.search            Session::Ask on the warm arena
//     explain.explain        Explainer::Explain (fresh path)
//     lift.lift              Lifter::Lift (fresh path; rebuilds the prefix)
//     explain.render         Explanation::Report()
//   replay                 the same question's prefix, stage by stage
//     explain.symbolize, synth.encode, simplify.fixpoint,
//     explain.eliminate, lift.prefix
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "explain/arena.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = -1;  ///< -1 while open
  int parent = -1;
  int question = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 14); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int Begin(std::string name, int parent, int question);
  void End(int id);
  std::vector<Span> Spans() const;

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// One span for the lifetime of the scope; does nothing without a tracer,
/// which is how the untraced runs share the traced code paths.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, int parent, int question)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(std::move(name), parent, question) : -1) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Close() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->End(id_);
    id_ = -1;
  }
  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per span: its duration minus the union of its children's intervals.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Counters read from the answer and the replay (not timed).
struct AnswerCounters {
  std::size_t seed_size = 0;
  std::size_t simplified_size = 0;
  int simplify_passes = 0;
  std::size_t rule_hits = 0;
  std::size_t residual_size = 0;
  std::size_t prefix_candidates = 0;
  bool replayed = false;
  bool arena = false;
  int candidates_tried = 0;
  double compile_ms = 0;
  double assemble_ms = 0;
  std::uint64_t compile_hits = 0;
  std::uint64_t compile_misses = 0;
  std::uint64_t solver_queries = 0;
  double solver_ms = 0;
  std::uint64_t frozen_nodes = 0;
  std::uint64_t overlay_nodes = 0;
};

/// One answered question.
struct Answer {
  bool ok = false;
  std::string error;
  std::string report;
  std::string subspec_text;
  double wall_ms = 0;  ///< the answer span (excludes the replay)
  AnswerCounters counters;
  /// The replay's rendered Subspec equals Explainer::Explain's (true when
  /// no replay ran).
  bool replay_matches = true;
};

/// Fresh path: Explainer::Explain + Lifter::Lift (hop bound `max_hops`)
/// + Report. With a tracer the question is also replayed stage by stage
/// and checked against Explain's subspec.
Answer AnswerFresh(Tracer* tracer, int question_id, const Network& network,
                   const Question& question, int max_hops);

/// Arena path for one group of questions sharing an arena key (see
/// GroupByArenaKey): the first builds it through GetOrBuild (traced, then
/// replayed), every question is answered by Session::Ask on the warm
/// arena and rendered. Writes answers[i] for each index i of `group`; the
/// question id of questions[i] is i.
void AnswerArenaGroup(Tracer& tracer, const Network& network,
                      const std::vector<Question>& questions,
                      const std::vector<std::size_t>& group,
                      const std::shared_ptr<ns::explain::ArenaRegistry>& registry,
                      std::vector<Answer>& answers);

/// The ArenaRegistry's key for a request: selection + requirements (the
/// lift mode and solver backend share the arena).
std::string ArenaKey(const ns::explain::BatchRequest& request);

/// Groups questions by network and arena key, in order of first
/// appearance.
std::vector<std::vector<std::size_t>> GroupByArenaKey(
    const std::vector<Question>& questions);

/// Per-layer metrics computed from one traced run.
struct LayerInputs {
  std::vector<Span> spans;
  std::vector<Answer> answers;  ///< indexed by question id
  /// Answer wall with tracing off, by question id; negative where the
  /// question was not also run untraced.
  std::vector<double> untraced_ms;
  ns::explain::ArenaRegistryStats arena;  ///< summed over the registries
};

/// The serve-layer metrics, measured by the serve-mix workload.
struct ServeLayer {
  double parse_us = 0;
  double cache_hit_ratio = 0;
  double shed = 0;
  double deadline_exceeded = 0;
  double queue_wait_ms = 0;
  double hit_ms_p50 = 0;
  double hit_ms_p99 = 0;
  double late_ms_p99 = 0;
};

/// Adds every per-layer metric, in the order BENCHMARK.json lists them;
/// `serve` (may be null) supplies the serve-layer ones, otherwise 0.
/// Returns false when the replay disagrees with the answers (subspec text
/// or stage time outside the tolerance).
bool AddLayerMetrics(const LayerInputs& inputs, const ServeLayer* serve,
                     RunResult& result);

}  // namespace perfbench
