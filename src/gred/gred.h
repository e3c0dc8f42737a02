#ifndef GREDVIS_GRED_GRED_H_
#define GREDVIS_GRED_GRED_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "embed/caching_embedder.h"
#include "embed/embedder.h"
#include "llm/chat_model.h"
#include "models/model.h"
#include "models/retrieval.h"
#include "util/resource_guard.h"
#include "util/timing.h"

namespace gred::core {

/// Configuration of the GRED pipeline (Section 4).
struct GredConfig {
  /// Retrieval depth for both the NLQ and DVQ libraries (paper: K=10).
  std::size_t k = 10;
  /// Stage switches for the Table 4 ablations.
  bool enable_retuner = true;    // w/o RTN when false
  bool enable_debugger = true;   // w/o DBG when false
  /// Annotation-grounding ablation: when false the Debugger prompt ships
  /// the bare schema with no NL annotations, so hallucinated names can
  /// only be repaired by name similarity (Section 4.2 argues the
  /// annotations are what make the repair reliable).
  bool debugger_uses_annotations = true;
  /// Prompt example order: true = ascending similarity (most similar
  /// example adjacent to the question; the paper's choice), false =
  /// descending (ablation).
  bool ascending_prompt_order = true;
  /// Optional display-name suffix (" w/o RTN", ...).
  std::string name_suffix;
  /// Per-stage resource limits (util/resource_guard.h) applied when a
  /// stage's completion is validated: lex + parse work is charged in
  /// accounted ticks (one per token), so an oversized or pathologically
  /// nested LLM completion trips the budget deterministically. A tripped
  /// retuner/debugger stage degrades to the previous stage's DVQ exactly
  /// like an LLM failure (DESIGN.md §8); a tripped generator — which has
  /// no fallback — surfaces kResourceExhausted. Default: unlimited.
  GuardLimits stage_limits;
  /// Static analysis gate (DESIGN.md §12). When true, every retuner and
  /// debugger candidate DVQ is linted against the target database schema
  /// (analysis::DvqAnalyzer); a candidate carrying an error-level
  /// diagnostic is rejected exactly like a budget trip — the previous
  /// stage's DVQ carries forward — and the current DVQ's diagnostics are
  /// fed into the debugger prompt as structured repair evidence. Default
  /// off: the stock pipeline (and its outputs) stay byte-identical.
  bool enable_lint = false;
  /// Static repair gate (DESIGN.md §17), meaningful only with
  /// enable_lint. When true, a lint-rejected retuner/debugger candidate
  /// gets one deterministic repair attempt (analysis::DvqRepairer)
  /// before degradation: if the repairer converges to an error-free DVQ
  /// the repaired candidate is accepted (no degradation, no lint trip),
  /// otherwise the stage degrades as before. Default off: the lint-only
  /// pipeline stays byte-identical.
  bool enable_repair = false;
};

/// Generates the natural-language annotation text for one database by
/// prompting `llm` with the Appendix C.1 prompt (preparation phase uses
/// zero penalties, per Section 5.1).
Result<std::string> GenerateAnnotations(const schema::Database& db,
                                        const llm::ChatModel& llm);

/// Per-call pipeline controls, for callers that must shed work on some
/// requests without rebuilding the pipeline (the serving layer's
/// brownout mode, DESIGN.md §16). With refinement off the retuner and
/// debugger are *skipped* — not degraded: no LLM call is made, no
/// degradation counter moves, and the generator's DVQ is returned
/// exactly as if both stages were disabled in GredConfig. The default
/// runs the full pipeline, byte-identical to `Translate`.
struct TranslateOptions {
  bool enable_refinement = true;
};

/// The GRED framework: NLQ-Retrieval Generator -> DVQ-Retrieval Retuner
/// -> Annotation-based Debugger, all through LLM prompts (Appendix C).
class Gred : public models::TextToVisModel {
 public:
  /// `corpus` supplies the embedding libraries (training split) and the
  /// clean databases whose schemas accompany in-context examples.
  /// `llm` is the chat model (not owned).
  Gred(const models::TrainingCorpus& corpus, const llm::ChatModel* llm,
       GredConfig config = {});

  std::string name() const override { return "GRED" + config_.name_suffix; }

  /// Thread-safe: concurrent Translate calls share the annotation cache
  /// (mutex-guarded) and the immutable embedding libraries built in the
  /// constructor; each call's trace is its own (TranslateWithTrace).
  ///
  /// Fault tolerance: a retuner or debugger failure (LLM error after any
  /// retries, or a completion with no extractable DVQ) degrades the call
  /// — the previous stage's DVQ carries forward and the trace marks the
  /// stage degraded — instead of failing it. Only a generator failure,
  /// which leaves nothing to fall back to, returns an error.
  Result<dvq::DVQ> Translate(const std::string& nlq,
                             const storage::DatabaseData& db) const override;

  /// Preparatory phase, step 2 (Section 4.1): generates and caches the
  /// NL annotations for every given database up front, so Translate
  /// never pays annotation latency. Returns the number of databases
  /// successfully annotated (cache hits included); failures — possible
  /// only with a fault-injecting LLM — are cached too (so the outcome is
  /// decided once, deterministically) and excluded from the count.
  Result<std::size_t> PrepareAnnotations(
      const std::vector<dataset::GeneratedDatabase>& databases) const;

  /// Intermediate artifacts of one Translate call (for the serving
  /// layer, the CLI and tests): generator output, retuner output,
  /// debugger output. A stage that ran but produced nothing usable (LLM
  /// failure after retries, a completion with no extractable DVQ, a
  /// budget trip or a lint rejection) leaves its dvq_* field empty and
  /// sets its degraded flag; the pipeline falls back to the previous
  /// stage's DVQ. The generator has no fallback, so it has no degraded
  /// flag — its failures fail Translate.
  struct Trace {
    std::string dvq_gen;
    std::string dvq_rtn;
    std::string dvq_dbg;
    bool rtn_degraded = false;
    bool dbg_degraded = false;
    /// Subset of the degradations above where the stage's candidate DVQ
    /// parsed fine but the static analyzer found an error-level
    /// diagnostic (GredConfig::enable_lint).
    bool rtn_lint_rejected = false;
    bool dbg_lint_rejected = false;
    /// The stage's candidate was lint-rejected but statically repaired
    /// to an error-free DVQ which the pipeline accepted
    /// (GredConfig::enable_repair). Mutually exclusive with the
    /// corresponding *_lint_rejected / *_degraded flags.
    bool rtn_repaired = false;
    bool dbg_repaired = false;
  };

  /// Translate that also reports this call's trace through `trace_out`
  /// (may be null; reset before the pipeline runs) and takes per-call
  /// stage controls. `Translate(nlq, db)` is exactly this call with a
  /// null `trace_out` and default options. Concurrent callers each get
  /// their own trace — the serving layer stamps its flags into every
  /// response.
  Result<dvq::DVQ> TranslateWithTrace(
      const std::string& nlq, const storage::DatabaseData& db,
      Trace* trace_out, const TranslateOptions& options = {}) const;

  /// Cumulative wall time spent in each pipeline stage across every
  /// Translate on this instance (summed over threads in parallel runs).
  struct StageStats {
    double retrieval_seconds = 0.0;  // NLQ-Retrieval Generator
    double retune_seconds = 0.0;     // DVQ-Retrieval Retuner
    double debug_seconds = 0.0;      // Annotation-based Debugger
    std::uint64_t translate_calls = 0;
    /// Translate calls whose retuner / debugger stage fell back to the
    /// previous stage's DVQ (zero unless the LLM actually fails).
    std::uint64_t retune_degraded = 0;
    std::uint64_t debug_degraded = 0;
    /// Subset of the degradations above caused specifically by the
    /// per-stage resource budget (GredConfig::stage_limits) tripping
    /// while validating the stage's completion.
    std::uint64_t retune_budget_trips = 0;
    std::uint64_t debug_budget_trips = 0;
    /// Degradations caused by the static analysis gate: the stage's
    /// candidate parsed but carried an error-level diagnostic
    /// (GredConfig::enable_lint; zero when linting is off).
    std::uint64_t retune_lint_trips = 0;
    std::uint64_t debug_lint_trips = 0;
    /// Lint-rejected candidates rescued by the static repairer and
    /// accepted (GredConfig::enable_repair; zero when repair is off).
    /// Disjoint from the lint-trip counters: a repaired candidate is
    /// not counted degraded.
    std::uint64_t retune_repairs = 0;
    std::uint64_t debug_repairs = 0;
  };
  StageStats stage_stats() const;

  /// Hit/miss counters of the shared embedding cache (all Translate
  /// threads embed through one CachingEmbedder; fault sweeps and k-sweeps
  /// re-embed the same NLQs, so hits dominate on re-runs).
  embed::CachingEmbedder::Stats embed_cache_stats() const {
    return embedder_->stats();
  }

  const GredConfig& config() const { return config_; }

 private:
  /// One refinement stage's cumulative counters (StageStats' retune_* /
  /// debug_* fields). The timer covers the whole stage.
  struct StageCounters {
    AtomicDuration time;
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> budget_trips{0};
    std::atomic<std::uint64_t> lint_trips{0};
    std::atomic<std::uint64_t> repairs{0};
  };

  /// The DVQ a stage hands to the next: its text and, once known, the
  /// text's parse under config_.stage_limits, so that no text is parsed
  /// twice under the same limits.
  struct StageDvq {
    std::string text;
    std::optional<Result<dvq::DVQ>> parsed;
  };

  /// What AcceptCandidate decided about a refinement stage's candidate.
  /// kAccepted and kRepaired replace the DVQ; every other verdict
  /// degrades the stage, and the previous stage's DVQ carries forward.
  enum class Verdict {
    kAccepted,      // parsed within budget and (with linting) error-free
    kRepaired,      // lint-rejected, then repaired to an error-free DVQ
    kUnparseable,   // empty or not a DVQ
    kBudgetTrip,    // over config_.stage_limits
    kLintRejected,  // error-level diagnostic and no successful repair
  };
  struct Judged {
    Verdict verdict;
    StageDvq dvq;  // the DVQ to carry forward when accepted
    bool accepted() const {
      return verdict == Verdict::kAccepted || verdict == Verdict::kRepaired;
    }
  };

  /// The acceptance policy both refinement stages share (DESIGN.md §8):
  /// parse the candidate under the stage budget, lint it against
  /// `schema` (GredConfig::enable_lint), try one repair
  /// (GredConfig::enable_repair), and count the outcome in `counters`.
  /// A repaired candidate carries only its text: it is parsed when a
  /// later step needs it.
  Judged AcceptCandidate(std::string candidate, const schema::Database& schema,
                         StageCounters* counters) const;

  /// Parses stage output under config_.stage_limits (one accounted tick
  /// per token); see GredConfig::stage_limits for the degradation
  /// contract. Unlimited limits parse unguarded. Only a budget trip
  /// returns kResourceExhausted.
  Result<dvq::DVQ> ParseWithinStageBudget(const std::string& text) const;

  /// Annotation collection, keyed by schema fingerprint (clean and
  /// perturbed corpora share database names but not schemas). Failures
  /// are cached alongside successes: a schema's annotation outcome is
  /// decided exactly once per Gred instance, which keeps fault-injected
  /// runs deterministic (later calls replay the cached outcome instead
  /// of re-drawing faults under racy thread interleavings).
  Result<std::string> AnnotationsFor(const schema::Database& db) const;

  GredConfig config_;
  const llm::ChatModel* llm_;  // not owned
  const std::vector<dataset::GeneratedDatabase>* databases_;
  std::unique_ptr<embed::CachingEmbedder> embedder_;
  std::unique_ptr<models::ExampleIndex> nlq_index_;
  std::unique_ptr<models::DvqIndex> dvq_index_;
  std::map<std::string, std::string> db_schema_prompts_;  // by db name
  /// Schema prompt per training example (nullptr when the example's
  /// database is unknown), resolved once at construction so Translate
  /// never lower-cases a db name on the retrieval hot path.
  std::vector<const std::string*> example_schema_prompts_;
  mutable std::mutex annotation_mutex_;  // guards annotation_cache_
  mutable std::map<std::string, Result<std::string>> annotation_cache_;
  mutable AtomicDuration retrieval_time_;
  mutable std::atomic<std::uint64_t> translate_calls_{0};
  mutable StageCounters retune_;
  mutable StageCounters debug_;
};

}  // namespace gred::core

#endif  // GREDVIS_GRED_GRED_H_
