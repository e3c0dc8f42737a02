#include "gred/gred.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "analysis/repairer.h"
#include "dvq/parser.h"
#include "llm/prompt.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gred::core {

namespace {

/// Working-phase sampling parameters (Section 5.1).
llm::ChatOptions WorkingOptions() {
  llm::ChatOptions options;
  options.temperature = 0.0;
  options.frequency_penalty = -0.5;
  options.presence_penalty = -0.5;
  return options;
}

/// Preparation-phase sampling parameters (Section 5.1).
llm::ChatOptions PreparationOptions() {
  return llm::ChatOptions{};  // all zeros
}

}  // namespace

Result<std::string> GenerateAnnotations(const schema::Database& db,
                                        const llm::ChatModel& llm) {
  llm::Prompt prompt = llm::BuildAnnotationPrompt(db);
  return llm.Complete(prompt, PreparationOptions());
}

Gred::Gred(const models::TrainingCorpus& corpus, const llm::ChatModel* llm,
           GredConfig config)
    : config_(std::move(config)), llm_(llm), databases_(corpus.databases) {
  // Preparatory phase (Section 4.1): the embedding vector library over
  // the training split's NLQs and DVQs, built with the semantic embedder
  // (the stand-in for text-embedding-3-large). The memoizing wrapper is
  // shared by every Translate thread: fault sweeps and k-sweeps re-embed
  // the same NLQs and generator outputs, which become cache hits.
  embedder_ = std::make_unique<embed::CachingEmbedder>(
      std::make_unique<embed::SemanticHashEmbedder>());
  nlq_index_ = std::make_unique<models::ExampleIndex>(corpus.train,
                                                      embedder_.get());
  dvq_index_ =
      std::make_unique<models::DvqIndex>(corpus.train, embedder_.get());
  for (const dataset::GeneratedDatabase& db : *corpus.databases) {
    db_schema_prompts_[strings::ToLower(db.data.name())] =
        db.data.db_schema().RenderSchemaPrompt();
  }
  // Resolve each training example's schema prompt once (db names need
  // lower-casing); Translate used to redo this on every retrieval hit.
  example_schema_prompts_.reserve(corpus.train->size());
  for (const dataset::Example& ex : *corpus.train) {
    auto it = db_schema_prompts_.find(strings::ToLower(ex.db_name));
    example_schema_prompts_.push_back(
        it == db_schema_prompts_.end() ? nullptr : &it->second);
  }
}

Result<std::string> Gred::AnnotationsFor(const schema::Database& db) const {
  std::string fingerprint =
      strings::Format("%016llx", static_cast<unsigned long long>(
                                     Fnv1a64(db.RenderSchemaPrompt())));
  {
    std::lock_guard<std::mutex> lock(annotation_mutex_);
    auto it = annotation_cache_.find(fingerprint);
    if (it != annotation_cache_.end()) return it->second;
  }
  // Generate outside the lock so a miss does not serialize concurrent
  // Translate calls on other databases. The outcome — success or failure
  // — is cached either way: the first insert wins, so every later call
  // replays the same result (with a fault-injecting LLM this is what
  // keeps a schema's annotation fate independent of thread interleaving).
  Result<std::string> annotations = GenerateAnnotations(db, *llm_);
  std::lock_guard<std::mutex> lock(annotation_mutex_);
  return annotation_cache_.emplace(fingerprint, std::move(annotations))
      .first->second;
}

Result<std::size_t> Gred::PrepareAnnotations(
    const std::vector<dataset::GeneratedDatabase>& databases) const {
  std::size_t annotated = 0;
  for (const dataset::GeneratedDatabase& db : databases) {
    if (AnnotationsFor(db.data.db_schema()).ok()) ++annotated;
  }
  return annotated;
}

Gred::StageStats Gred::stage_stats() const {
  StageStats stats;
  stats.retrieval_seconds = retrieval_time_.seconds();
  stats.retune_seconds = retune_.time.seconds();
  stats.debug_seconds = debug_.time.seconds();
  stats.translate_calls = translate_calls_.load(std::memory_order_relaxed);
  stats.retune_degraded = retune_.degraded.load(std::memory_order_relaxed);
  stats.debug_degraded = debug_.degraded.load(std::memory_order_relaxed);
  stats.retune_budget_trips =
      retune_.budget_trips.load(std::memory_order_relaxed);
  stats.debug_budget_trips =
      debug_.budget_trips.load(std::memory_order_relaxed);
  stats.retune_lint_trips = retune_.lint_trips.load(std::memory_order_relaxed);
  stats.debug_lint_trips = debug_.lint_trips.load(std::memory_order_relaxed);
  stats.retune_repairs = retune_.repairs.load(std::memory_order_relaxed);
  stats.debug_repairs = debug_.repairs.load(std::memory_order_relaxed);
  return stats;
}

/// Validates a stage's DVQ text under the configured per-stage budget.
/// With unlimited stage_limits this is a plain Parse — bit-identical to
/// the pre-guard pipeline. An unguarded Parse never returns
/// kResourceExhausted (its depth cap is a kParseError), so that code
/// means the budget ran out.
Result<dvq::DVQ> Gred::ParseWithinStageBudget(const std::string& text) const {
  if (config_.stage_limits.Unlimited()) return dvq::Parse(text);
  ExecContext guard(config_.stage_limits);
  return dvq::Parse(text, &guard);
}

Gred::Judged Gred::AcceptCandidate(std::string candidate,
                                   const schema::Database& schema,
                                   StageCounters* counters) const {
  // Accept the stage's output only when it is a parseable DVQ within the
  // per-stage budget: a truncated/corrupted/oversized completion must
  // not replace a healthy DVQ. With enable_lint the bar rises: a
  // candidate the analyzer proves broken against the schema
  // (error-level diagnostic) is rejected exactly like a budget trip.
  Result<dvq::DVQ> parsed =
      candidate.empty()
          ? Result<dvq::DVQ>(Status::ParseError("stage produced no DVQ"))
          : ParseWithinStageBudget(candidate);
  Verdict verdict = Verdict::kUnparseable;
  if (!parsed.ok()) {
    if (parsed.status().IsResourceExhausted()) verdict = Verdict::kBudgetTrip;
  } else if (config_.enable_lint &&
             analysis::HasErrors(
                 analysis::DvqAnalyzer(&schema).Analyze(parsed.value()))) {
    // One deterministic repair attempt before degradation (DESIGN.md
    // §17): an error-free repaired candidate is accepted in place of
    // the rejected one.
    if (config_.enable_repair) {
      analysis::RepairResult repaired =
          analysis::DvqRepairer(&schema).Repair(parsed.value());
      if (repaired.success) {
        counters->repairs.fetch_add(1, std::memory_order_relaxed);
        return {Verdict::kRepaired, {repaired.dvq.ToString(), std::nullopt}};
      }
    }
    verdict = Verdict::kLintRejected;
  } else {
    return {Verdict::kAccepted, {std::move(candidate), std::move(parsed)}};
  }
  counters->degraded.fetch_add(1, std::memory_order_relaxed);
  if (verdict == Verdict::kBudgetTrip) {
    counters->budget_trips.fetch_add(1, std::memory_order_relaxed);
  }
  if (verdict == Verdict::kLintRejected) {
    counters->lint_trips.fetch_add(1, std::memory_order_relaxed);
  }
  return {verdict, {}};
}

Result<dvq::DVQ> Gred::Translate(const std::string& nlq,
                                 const storage::DatabaseData& db) const {
  return TranslateWithTrace(nlq, db, nullptr);
}

Result<dvq::DVQ> Gred::TranslateWithTrace(
    const std::string& nlq, const storage::DatabaseData& db, Trace* trace_out,
    const TranslateOptions& options) const {
  Trace local_trace;
  Trace& trace = trace_out != nullptr ? *trace_out : local_trace;
  trace = Trace{};
  translate_calls_.fetch_add(1, std::memory_order_relaxed);
  const schema::Database& schema = db.db_schema();

  StageDvq current;  // the DVQ the next stage refines
  // Records a refinement stage's verdict in its trace fields; an
  // accepted DVQ replaces `current`.
  auto record = [&current](Judged judged, std::string& stage_dvq,
                           bool& degraded, bool& lint_rejected,
                           bool& repaired) {
    degraded = !judged.accepted();
    lint_rejected = judged.verdict == Verdict::kLintRejected;
    repaired = judged.verdict == Verdict::kRepaired;
    if (judged.accepted()) {
      stage_dvq = judged.dvq.text;
      current = std::move(judged.dvq);
    }
  };
  auto completion_dvq = [](const Result<std::string>& completion) {
    return completion.ok() ? llm::ExtractDvqText(completion.value())
                           : std::string();
  };

  // --- NLQ-Retrieval Generator -------------------------------------------
  std::string target_schema;
  {
    ScopedTimer timer(&retrieval_time_);
    std::vector<models::ExampleIndex::Hit> hits =
        nlq_index_->TopK(nlq, config_.k);
    if (hits.empty()) {
      return Status::NotFound("GRED: empty embedding library");
    }
    // hits are descending by similarity; the paper assembles the prompt in
    // ascending order so the most similar example sits next to the
    // question.
    if (config_.ascending_prompt_order) {
      std::reverse(hits.begin(), hits.end());
    }
    std::vector<llm::GenerationExample> examples;
    examples.reserve(hits.size());
    for (const models::ExampleIndex::Hit& hit : hits) {
      llm::GenerationExample ex;
      const std::string* schema_prompt = example_schema_prompts_[hit.index];
      if (schema_prompt != nullptr) {
        ex.schema_prompt = *schema_prompt;
      }
      ex.nlq = hit.example->nlq;
      ex.dvq = hit.example->DvqText();
      examples.push_back(std::move(ex));
    }
    target_schema = schema.RenderSchemaPrompt();
    llm::Prompt gen_prompt =
        llm::BuildGenerationPrompt(examples, target_schema, nlq);
    Result<std::string> gen_completion =
        llm_->Complete(gen_prompt, WorkingOptions());
    if (!gen_completion.ok()) return gen_completion.status();
    std::string dvq_gen = llm::ExtractDvqText(gen_completion.value());
    if (dvq_gen.empty()) {
      return Status::ExecutionError("GRED: generator produced no DVQ");
    }
    trace.dvq_gen = dvq_gen;
    current.text = std::move(dvq_gen);
  }

  // --- DVQ-Retrieval Retuner ----------------------------------------------
  // A retuner failure — transient LLM error surviving retries, a
  // completion with no extractable DVQ, or a candidate AcceptCandidate
  // rejects — degrades rather than fails the call: the generator's DVQ
  // carries forward, the trace keeps dvq_rtn empty (the stage produced
  // nothing) and marks the stage degraded.
  if (config_.enable_retuner && options.enable_refinement) {
    ScopedTimer timer(&retune_.time);
    std::vector<models::DvqIndex::Hit> dvq_hits =
        dvq_index_->TopK(current.text, config_.k);
    std::vector<std::string> references;
    references.reserve(dvq_hits.size());
    for (const models::DvqIndex::Hit& hit : dvq_hits) {
      references.push_back(hit.example->DvqText());
    }
    llm::Prompt retune_prompt =
        llm::BuildRetunePrompt(references, current.text);
    record(AcceptCandidate(
               completion_dvq(llm_->Complete(retune_prompt, WorkingOptions())),
               schema, &retune_),
           trace.dvq_rtn, trace.rtn_degraded, trace.rtn_lint_rejected,
           trace.rtn_repaired);
  }

  // --- Annotation-based Debugger -------------------------------------------
  // Same fallback contract as the retuner; an annotation-generation
  // failure (cached per schema) also degrades the stage.
  if (config_.enable_debugger && options.enable_refinement) {
    ScopedTimer timer(&debug_.time);
    Result<std::string> annotations =
        config_.debugger_uses_annotations ? AnnotationsFor(schema)
                                          : Result<std::string>(std::string());
    if (!annotations.ok()) {
      trace.dbg_degraded = true;
      debug_.degraded.fetch_add(1, std::memory_order_relaxed);
    } else {
      // With linting on, the debugger does not rediscover schema
      // mismatches from the annotations alone: the analyzer's findings
      // on the incoming DVQ ride along in the prompt as structured
      // repair evidence (empty findings leave the prompt byte-identical
      // to the stock C.4 prompt). The parse is kept for the return.
      std::string lint_findings;
      auto render_findings = [&](const dvq::DVQ& incoming) {
        lint_findings = analysis::RenderDiagnostics(
            analysis::DvqAnalyzer(&schema).Analyze(incoming));
      };
      if (config_.enable_lint) {
        if (!current.parsed) {
          current.parsed = ParseWithinStageBudget(current.text);
        }
        if (current.parsed->ok()) {
          render_findings(current.parsed->value());
        } else if (current.parsed->status().IsResourceExhausted()) {
          // Over the stage budget is not unparseable: the evidence is
          // rendered from an unguarded parse, and only the return
          // rejects the DVQ.
          Result<dvq::DVQ> unguarded = dvq::Parse(current.text);
          if (unguarded.ok()) render_findings(unguarded.value());
        }
      }
      llm::Prompt debug_prompt = llm::BuildDebugPrompt(
          target_schema, annotations.value(), current.text, lint_findings);
      record(AcceptCandidate(
                 completion_dvq(llm_->Complete(debug_prompt, WorkingOptions())),
                 schema, &debug_),
             trace.dvq_dbg, trace.dbg_degraded, trace.dbg_lint_rejected,
             trace.dbg_repaired);
    }
  }

  // The return is the generator-or-survivor DVQ: there is nothing to
  // fall back to, so a tripped budget here surfaces as a typed
  // kResourceExhausted (the generator-failure convention).
  if (!current.parsed) current.parsed = ParseWithinStageBudget(current.text);
  return std::move(*current.parsed);
}

}  // namespace gred::core
