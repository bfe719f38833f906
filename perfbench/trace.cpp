#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "explain/report.hpp"
#include "explain/subspec.hpp"
#include "explain/symbolize.hpp"
#include "simplify/engine.hpp"
#include "synth/candidates.hpp"
#include "synth/encoder.hpp"

namespace perfbench {

namespace ex = ns::explain;

// Allowed disagreement between the replayed stage sum and the span of
// the public call that runs the same stages (GetOrBuild, or Explain on
// the fresh path), as a share of that span, summed over the run. The
// replay runs the same code on a fresh pool; what remains is timing
// noise, which reaches 30% on multias(4)'s multi-second elimination.
constexpr double kReplayTolerance = 0.5;

int Tracer::Begin(std::string name, int parent, int question) {
  const double start = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, -1, parent, question});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  const double end = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ms = end;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (std::size_t c : children[i]) {
      const double lo = std::max(span.start_ms, spans[c].start_ms);
      const double hi = std::min(span.end_ms, spans[c].end_ms);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0;
    double reach = span.start_ms;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) busy += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end_ms - span.start_ms) - busy;
  }
  return self;
}

namespace {

struct Replay {
  bool ok = false;
  std::string subspec_text;
};

/// Replays Explainer::Explain's stages through the public stage
/// functions, in the same order on a fresh pool (so node creation order,
/// and with it the rendering, match), then the lift prefix.
Replay ReplayStages(Tracer& tracer, int question_id, const Network& network,
                    const ns::explain::BatchRequest& request, int max_hops,
                    AnswerCounters& counters) {
  Replay replay;
  SpanScope root(&tracer, "replay", -1, question_id);
  ns::smt::ExprPool pool;
  ns::config::NetworkConfig partial = network.solved;
  ex::Subspec subspec;
  subspec.selection = request.selection;
  {
    SpanScope span(&tracer, "explain.symbolize", root.id(), question_id);
    auto holes = ex::Symbolize(partial, request.selection);
    if (!holes) return replay;
    auto destinations =
        ns::synth::BuildDestinations(network.topo, partial, network.spec);
    if (!destinations) return replay;
    ns::synth::EnsureOriginated(partial, destinations.value());
    subspec.holes = std::move(holes).value();
  }
  std::vector<ns::smt::Expr> seed;
  {
    SpanScope span(&tracer, "synth.encode", root.id(), question_id);
    ns::synth::EncoderOptions options;
    options.max_hops = max_hops;
    options.only_requirements = request.requirements;
    auto encoding = ns::synth::Encode(pool, network.topo, partial,
                                      network.spec, options);
    if (!encoding) return replay;
    const auto& domains = encoding.value().domain_constraints;
    for (ns::smt::Expr c : encoding.value().constraints) {
      if (std::find(domains.begin(), domains.end(), c) == domains.end()) {
        seed.push_back(c);
      }
    }
    subspec.domains = domains;
    subspec.values = encoding.value().values;
  }
  counters.seed_size = ns::simplify::ConstraintSetSize(seed);
  std::vector<ns::smt::Expr> simplified;
  // Lives on through elimination, as in Explainer::Explain: its memo's
  // lifetime shapes the heap the later stages allocate from.
  ns::simplify::Engine engine(pool);
  {
    SpanScope span(&tracer, "simplify.fixpoint", root.id(), question_id);
    simplified = engine.SimplifyConstraints(std::move(seed));
    counters.simplify_passes = engine.last_passes();
    counters.rule_hits = engine.TotalRuleHits();
  }
  counters.simplified_size = ns::simplify::ConstraintSetSize(simplified);
  {
    SpanScope span(&tracer, "explain.eliminate", root.id(), question_id);
    subspec.constraints = ex::EliminateAuxVars(pool, std::move(simplified));
  }
  counters.residual_size = ns::simplify::ConstraintSetSize(subspec.constraints);
  if (!request.selection.complement && !subspec.IsEmpty() &&
      !subspec.IsUnsatisfiable()) {
    SpanScope span(&tracer, "lift.prefix", root.id(), question_id);
    ex::SubspecOptions options;
    options.requirements = request.requirements;
    options.encoder.max_hops = max_hops;
    auto prefix = ex::BuildLiftPrefix(pool, network.topo, network.spec,
                                      network.solved, subspec, options);
    if (!prefix) return replay;
    counters.prefix_candidates = prefix.value().candidates.size();
  }
  counters.replayed = true;
  replay.ok = true;
  replay.subspec_text = subspec.ToString();
  return replay;
}

void ReadStats(const ex::Explanation& explanation, AnswerCounters& counters) {
  const ex::ExplainStats& stats = explanation.stats;
  counters.arena = stats.arena.used;
  counters.frozen_nodes = stats.arena.frozen_nodes;
  counters.overlay_nodes = stats.arena.overlay_nodes;
  counters.candidates_tried = explanation.lifted.candidates_tried;
  counters.compile_ms = stats.pipeline.compile_ms;
  counters.assemble_ms = stats.pipeline.assemble_ms;
  counters.compile_hits = stats.pipeline.compile_cache_hits;
  counters.compile_misses = stats.pipeline.compile_cache_misses;
  counters.solver_queries = stats.lift.queries;
  counters.solver_ms = stats.lift.wall_ms;
}

}  // namespace

Answer AnswerFresh(Tracer* tracer, int question_id, const Network& network,
                   const Question& question, int max_hops) {
  Answer answer;
  const ex::BatchRequest& request = question.request;
  // Explain's rendered subspec, kept for the replay check: the replay runs
  // after the answer's pool is gone, as the next answer would.
  std::string explained;
  try {
    const Clock::time_point start = Clock::now();
    SpanScope root(tracer, "answer", -1, question_id);
    ex::Explainer explainer(network.topo, network.spec, network.solved);
    ex::SubspecOptions options;
    options.requirements = request.requirements;
    options.encoder.max_hops = max_hops;
    options.solver = request.solver;

    SpanScope explain(tracer, "explain.explain", root.id(), question_id);
    auto subspec = explainer.Explain(request.selection, options);
    explain.Close();
    if (!subspec) {
      answer.error = subspec.error().ToString();
      return answer;
    }

    ex::Explanation explanation;
    explanation.selection = request.selection;
    explanation.requirements = request.requirements;
    explanation.mode = request.mode;
    explanation.stats.backend = request.solver.backend;
    SpanScope lift(tracer, "lift.lift", root.id(), question_id);
    ex::Lifter lifter(explainer.pool(), network.topo, network.spec,
                      explainer.solved());
    auto lifted = lifter.Lift(subspec.value(), request.mode, options);
    lift.Close();
    if (!lifted) {
      answer.error = lifted.error().ToString();
      return answer;
    }
    explanation.subspec = std::move(subspec).value();
    explanation.lifted = std::move(lifted).value();
    explanation.stats.lift = explanation.lifted.solver_stats;
    explanation.stats.pipeline = explanation.lifted.stats;

    SpanScope render(tracer, "explain.render", root.id(), question_id);
    answer.report = explanation.Report();
    answer.subspec_text = explanation.SubspecText();
    render.Close();
    root.Close();
    answer.wall_ms = MsSince(start);
    answer.ok = true;
    ReadStats(explanation, answer.counters);
    if (tracer != nullptr) explained = explanation.subspec.ToString();
  } catch (const std::exception& e) {
    answer.ok = false;
    answer.error = e.what();
  }
  if (tracer != nullptr && answer.ok) {
    const Replay replay = ReplayStages(*tracer, question_id, network, request,
                                       max_hops, answer.counters);
    answer.replay_matches = replay.ok && replay.subspec_text == explained;
  }
  return answer;
}

std::string ArenaKey(const ex::BatchRequest& request) {
  std::string key = request.selection.ToString();
  for (const std::string& requirement : request.requirements) {
    key += "|" + requirement;
  }
  return key;
}

std::vector<std::vector<std::size_t>> GroupByArenaKey(
    const std::vector<Question>& questions) {
  std::map<std::string, std::size_t> index;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    const std::string key =
        questions[i].network + "|" + ArenaKey(questions[i].request);
    const auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

void AnswerArenaGroup(Tracer& tracer, const Network& network,
                      const std::vector<Question>& questions,
                      const std::vector<std::size_t>& group,
                      const std::shared_ptr<ex::ArenaRegistry>& registry,
                      std::vector<Answer>& answers) {
  for (std::size_t i = 0; i < group.size(); ++i) {
    const int question_id = static_cast<int>(group[i]);
    const ex::BatchRequest& request = questions[group[i]].request;
    Answer& answer = answers[group[i]];
    try {
      const Clock::time_point start = Clock::now();
      SpanScope root(&tracer, "answer", -1, question_id);
      std::shared_ptr<const ex::FrozenQuestion> frozen;
      if (i == 0) {
        SpanScope build(&tracer, "explain.arena.build", root.id(),
                        question_id);
        auto built = registry->GetOrBuild(network.topo, network.spec,
                                          network.solved, request.selection,
                                          request.requirements);
        if (!built) {
          answer.error = built.error().ToString();
          continue;
        }
        frozen = built.value();
      }
      ex::Session session(network.topo, network.spec, network.solved);
      session.UseArenaRegistry(registry);
      session.SetLiftOptions(request.lift_threads, request.lift_portfolio);
      SpanScope search(&tracer, "lift.search", root.id(), question_id);
      auto explanation =
          session.Ask(request.selection, request.mode, request.requirements,
                      /*compute_baselines=*/false, request.solver);
      search.Close();
      if (!explanation) {
        answer.error = explanation.error().ToString();
        continue;
      }
      SpanScope render(&tracer, "explain.render", root.id(), question_id);
      answer.report = explanation.value().Report();
      answer.subspec_text = explanation.value().SubspecText();
      render.Close();
      root.Close();
      answer.wall_ms = MsSince(start);
      answer.ok = true;
      ReadStats(explanation.value(), answer.counters);

      if (frozen != nullptr) {
        const Replay replay = ReplayStages(tracer, question_id, network,
                                           request, 0, answer.counters);
        answer.replay_matches =
            replay.ok && replay.subspec_text == frozen->subspec.ToString();
      }
    } catch (const std::exception& e) {
      answer.ok = false;
      answer.error = e.what();
    }
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

bool AddLayerMetrics(const LayerInputs& inputs, const ServeLayer* serve,
                     RunResult& result) {
  const std::vector<Span>& spans = inputs.spans;
  const std::vector<double> self = SelfTimes(spans);

  // Self time per (question, span name); every name occurs at most once
  // per question.
  std::map<std::pair<int, std::string>, double> by_question;
  std::map<std::pair<int, std::string>, double> wall_by_question;
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_question[{spans[i].question, spans[i].name}] += self[i];
    wall_by_question[{spans[i].question, spans[i].name}] +=
        spans[i].end_ms - spans[i].start_ms;
    by_name[spans[i].name].push_back(self[i]);
  }
  auto mean_of = [&](const std::string& name) { return Mean(by_name[name]); };
  auto at = [&](const std::map<std::pair<int, std::string>, double>& m,
                int q, const std::string& name) {
    const auto it = m.find({q, name});
    return it == m.end() ? 0.0 : it->second;
  };

  // lift.search is compile + assemble. On the arena path that is the
  // Session::Ask span on the warm arena. The fresh-path Lift span also
  // rebuilds the prefix inline, which the replay already timed as
  // lift.prefix; the difference of those two multi-second spans is within
  // their run-to-run noise, so the fresh path reads Lift's own phase
  // timers instead, and the prefix is counted once.
  std::vector<double> search = by_name["lift.search"];
  double replay_sum = 0;
  double replay_reference = 0;
  double cold_total = 0;
  double cold_eliminate_prefix = 0;
  bool replay_ok = true;
  static const char* kStages[] = {"explain.symbolize", "synth.encode",
                                  "simplify.fixpoint", "explain.eliminate",
                                  "lift.prefix"};
  for (std::size_t q = 0; q < inputs.answers.size(); ++q) {
    const Answer& answer = inputs.answers[q];
    const int id = static_cast<int>(q);
    if (!answer.replay_matches) replay_ok = false;
    const bool fresh = wall_by_question.count({id, "lift.lift"}) != 0;
    const double search_ms =
        fresh ? answer.counters.compile_ms + answer.counters.assemble_ms
              : at(by_question, id, "lift.search");
    if (fresh) search.push_back(search_ms);
    if (!answer.counters.replayed) continue;
    double stages = 0;
    for (const char* stage : kStages) {
      if (fresh && std::string(stage) == "lift.prefix") continue;
      stages += at(by_question, id, stage);
    }
    const double prefix = at(by_question, id, "lift.prefix");
    replay_sum += stages;
    replay_reference += fresh
                            ? at(wall_by_question, id, "explain.explain")
                            : at(wall_by_question, id, "explain.arena.build");
    // The cold answer in stage terms: the replayed prefix stages, then
    // the search and the rendering.
    cold_total += stages + (fresh ? prefix : 0) + search_ms +
                  at(by_question, id, "explain.render");
    cold_eliminate_prefix += at(by_question, id, "explain.eliminate") + prefix;
  }
  const double replay_ratio = Ratio(replay_sum, replay_reference);
  if (replay_reference > 0 && std::abs(replay_ratio - 1) > kReplayTolerance) {
    replay_ok = false;
  }

  std::vector<double> replayed_seed, replayed_simplified, replayed_passes,
      replayed_hits, replayed_residual, replayed_candidates, tried, compile,
      assemble, queries, solver_ms, frozen, overlay, traced_ms, untraced_ms;
  double compile_hits = 0;
  double compile_lookups = 0;
  for (std::size_t q = 0; q < inputs.answers.size(); ++q) {
    const Answer& answer = inputs.answers[q];
    if (!answer.ok) continue;
    const AnswerCounters& c = answer.counters;
    if (q < inputs.untraced_ms.size() && inputs.untraced_ms[q] >= 0) {
      traced_ms.push_back(answer.wall_ms);
      untraced_ms.push_back(inputs.untraced_ms[q]);
    }
    if (c.replayed) {
      replayed_seed.push_back(static_cast<double>(c.seed_size));
      replayed_simplified.push_back(static_cast<double>(c.simplified_size));
      replayed_passes.push_back(c.simplify_passes);
      replayed_hits.push_back(static_cast<double>(c.rule_hits));
      replayed_residual.push_back(static_cast<double>(c.residual_size));
      replayed_candidates.push_back(static_cast<double>(c.prefix_candidates));
    }
    tried.push_back(c.candidates_tried);
    compile.push_back(c.compile_ms);
    assemble.push_back(c.assemble_ms);
    queries.push_back(static_cast<double>(c.solver_queries));
    solver_ms.push_back(c.solver_ms);
    compile_hits += static_cast<double>(c.compile_hits);
    compile_lookups += static_cast<double>(c.compile_hits + c.compile_misses);
    if (c.arena) {
      frozen.push_back(static_cast<double>(c.frozen_nodes));
      overlay.push_back(static_cast<double>(c.overlay_nodes));
    }
  }
  const ServeLayer none;
  const ServeLayer& s = serve != nullptr ? *serve : none;
  const double arena_lookups =
      static_cast<double>(inputs.arena.builds + inputs.arena.reuses);

  result.Add("explain.symbolize.ms", mean_of("explain.symbolize"), "ms");
  result.Add("synth.encode.ms", mean_of("synth.encode"), "ms");
  result.Add("synth.encode.seed_size", Mean(replayed_seed), "nodes");
  result.Add("simplify.fixpoint.ms", mean_of("simplify.fixpoint"), "ms");
  result.Add("simplify.fixpoint.passes", Mean(replayed_passes), "count");
  result.Add("simplify.fixpoint.rule_hits", Mean(replayed_hits), "count");
  result.Add("simplify.fixpoint.simplified_size", Mean(replayed_simplified),
             "nodes");
  result.Add("explain.eliminate.ms", mean_of("explain.eliminate"), "ms");
  result.Add("explain.eliminate.residual_size", Mean(replayed_residual),
             "nodes");
  result.Add("lift.prefix.ms", mean_of("lift.prefix"), "ms");
  result.Add("lift.prefix.candidates", Mean(replayed_candidates), "count");
  result.Add("lift.search.ms", Mean(search), "ms");
  result.Add("lift.compile.ms", Mean(compile), "ms");
  result.Add("lift.assemble.ms", Mean(assemble), "ms");
  result.Add("lift.candidates_tried", Mean(tried), "count");
  result.Add("lift.compile_cache.hit_ratio",
             Ratio(compile_hits, compile_lookups), "ratio");
  result.Add("smt.solver.queries", Mean(queries), "count");
  result.Add("smt.solver.ms", Mean(solver_ms), "ms");
  result.Add("explain.arena.build.ms", mean_of("explain.arena.build"), "ms");
  result.Add("explain.arena.reuse_ratio",
             Ratio(static_cast<double>(inputs.arena.reuses), arena_lookups),
             "ratio");
  result.Add("explain.arena.frozen_nodes", Mean(frozen), "nodes");
  result.Add("explain.arena.overlay_nodes", Mean(overlay), "nodes");
  result.Add("explain.render.ms", mean_of("explain.render"), "ms");
  result.Add("explain.cold.eliminate_prefix_share",
             Ratio(cold_eliminate_prefix, cold_total), "ratio");
  result.Add("serve.protocol.parse_us", s.parse_us, "us");
  result.Add("serve.cache.hit_ratio", s.cache_hit_ratio, "ratio");
  result.Add("serve.admission.shed", s.shed, "count");
  result.Add("serve.deadline_exceeded", s.deadline_exceeded, "count");
  result.Add("serve.queue_wait_ms", s.queue_wait_ms, "ms");
  result.Add("serve.hit.ms_p50", s.hit_ms_p50, "ms");
  result.Add("serve.hit.ms_p99", s.hit_ms_p99, "ms");
  result.Add("loadgen.late_ms_p99", s.late_ms_p99, "ms");
  result.Add("trace.overhead_ms", Mean(traced_ms) - Mean(untraced_ms), "ms");
  result.Add("trace.unaccounted_ms", mean_of("answer"), "ms");
  result.Add("trace.replay_ratio", replay_ratio, "ratio");
  return replay_ok;
}

}  // namespace perfbench
