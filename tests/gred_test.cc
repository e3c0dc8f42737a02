// Tests for the GRED pipeline: preparatory phase, three stages, traces,
// ablation switches and the prompt-order flag.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <ostream>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/repairer.h"
#include "dvq/components.h"
#include "dvq/parser.h"
#include "gred/gred.h"
#include "llm/prompt.h"
#include "llm/resilient.h"
#include "llm/sim_llm.h"

namespace gred::core {
namespace {

class GredFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (suite_ != nullptr) return;  // shared with the parameterized suites
    dataset::BenchmarkOptions options;
    options.train_size = 240;
    options.test_size = 40;
    suite_ = new dataset::BenchmarkSuite(
        dataset::BuildBenchmarkSuite(options));
    corpus_.train = &suite_->train;
    corpus_.databases = &suite_->databases;
    llm_ = new llm::SimulatedChatModel();
  }
  static dataset::BenchmarkSuite* suite_;
  static models::TrainingCorpus corpus_;
  static llm::SimulatedChatModel* llm_;
};

dataset::BenchmarkSuite* GredFixture::suite_ = nullptr;
models::TrainingCorpus GredFixture::corpus_;
llm::SimulatedChatModel* GredFixture::llm_ = nullptr;

TEST_F(GredFixture, AnnotationGeneratorProducesColumnLines) {
  const schema::Database& db = suite_->databases[0].data.db_schema();
  Result<std::string> annotations = GenerateAnnotations(db, *llm_);
  ASSERT_TRUE(annotations.ok());
  for (const schema::TableDef& table : db.tables()) {
    EXPECT_NE(annotations.value().find("Table " + table.name()),
              std::string::npos);
  }
}

TEST_F(GredFixture, PrepareAnnotationsCoversCorpus) {
  Gred model(corpus_, llm_);
  Result<std::size_t> prepared =
      model.PrepareAnnotations(suite_->databases);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared.value(), suite_->databases.size());
  // Idempotent (cache hits).
  EXPECT_EQ(model.PrepareAnnotations(suite_->databases).value(),
            suite_->databases.size());
}

TEST_F(GredFixture, TranslatesCleanExample) {
  Gred model(corpus_, llm_);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_FALSE(trace.dvq_rtn.empty());
  EXPECT_FALSE(trace.dvq_dbg.empty());
}

TEST_F(GredFixture, AblationSwitchesSkipStages) {
  GredConfig config;
  config.enable_retuner = false;
  config.enable_debugger = false;
  config.name_suffix = " w/o RTN&DBG";
  Gred model(corpus_, llm_, config);
  EXPECT_EQ(model.name(), "GRED w/o RTN&DBG");
  const dataset::Example& ex = suite_->test_clean[1];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.dvq_rtn.empty());
  EXPECT_TRUE(trace.dvq_dbg.empty());
}

TEST_F(GredFixture, PerCallRefinementSwitchSkipsBothStages) {
  // TranslateOptions{false} sheds the retuner and debugger for one call:
  // the same DVQ as a pipeline built without them, nothing degraded, and
  // a caller's stale trace is reset rather than merged into.
  GredConfig no_refinement;
  no_refinement.enable_retuner = false;
  no_refinement.enable_debugger = false;
  Gred reference(corpus_, llm_, no_refinement);
  Gred model(corpus_, llm_);
  const dataset::Example& ex = suite_->test_both[1];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Gred::Trace trace;
  trace.dvq_rtn = "stale";
  trace.dbg_degraded = true;
  Result<dvq::DVQ> out = model.TranslateWithTrace(
      ex.nlq, db->data, &trace, TranslateOptions{.enable_refinement = false});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Result<dvq::DVQ> expected = reference.Translate(ex.nlq, db->data);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(out.value().ToString(), expected.value().ToString());
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.dvq_rtn.empty());
  EXPECT_FALSE(trace.dbg_degraded);
  Gred::StageStats stats = model.stage_stats();
  EXPECT_EQ(stats.retune_seconds + stats.debug_seconds, 0.0);
  EXPECT_EQ(stats.retune_degraded + stats.debug_degraded, 0u);
}

TEST_F(GredFixture, DebuggerRecoversRenamedSchema) {
  Gred full(corpus_, llm_);
  GredConfig no_dbg;
  no_dbg.enable_debugger = false;
  Gred without(corpus_, llm_, no_dbg);
  std::size_t full_hits = 0;
  std::size_t without_hits = 0;
  const std::size_t n = std::min<std::size_t>(25, suite_->test_schema.size());
  for (std::size_t i = 0; i < n; ++i) {
    const dataset::Example& ex = suite_->test_schema[i];
    const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
    Result<dvq::DVQ> a = full.Translate(ex.nlq, db->data);
    Result<dvq::DVQ> b = without.Translate(ex.nlq, db->data);
    if (a.ok() && dvq::OverallMatch(a.value(), ex.dvq)) ++full_hits;
    if (b.ok() && dvq::OverallMatch(b.value(), ex.dvq)) ++without_hits;
  }
  // Section 5.3: the Debugger is the schema-variant workhorse.
  EXPECT_GT(full_hits, without_hits);
}

TEST_F(GredFixture, DebuggerWithoutAnnotationsStillRuns) {
  GredConfig config;
  config.debugger_uses_annotations = false;
  Gred model(corpus_, llm_, config);
  const dataset::Example& ex = suite_->test_schema[0];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  EXPECT_TRUE(out.ok());
  EXPECT_FALSE(trace.dvq_dbg.empty());
}

TEST_F(GredFixture, DeterministicTranslations) {
  Gred model(corpus_, llm_);
  const dataset::Example& ex = suite_->test_both[0];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Result<dvq::DVQ> a = model.Translate(ex.nlq, db->data);
  Result<dvq::DVQ> b = model.Translate(ex.nlq, db->data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ToString(), b.value().ToString());
}

TEST_F(GredFixture, PromptOrderFlagChangesNothingStructural) {
  GredConfig desc;
  desc.ascending_prompt_order = false;
  Gred model(corpus_, llm_, desc);
  const dataset::Example& ex = suite_->test_clean[2];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Result<dvq::DVQ> out = model.Translate(ex.nlq, db->data);
  EXPECT_TRUE(out.ok());
}

TEST_F(GredFixture, KConfigRespected) {
  GredConfig tiny;
  tiny.k = 1;
  Gred model(corpus_, llm_, tiny);
  EXPECT_EQ(model.config().k, 1u);
  const dataset::Example& ex = suite_->test_clean[3];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  EXPECT_TRUE(model.Translate(ex.nlq, db->data).ok());
}

// --- Fault tolerance / graceful degradation ---------------------------------

/// Substrings that identify each of the four Appendix C prompts.
constexpr char kGenerationNeedle[] = "Generate DVQs based on";
constexpr char kRetuneNeedle[] = "Reference DVQs";
constexpr char kDebugNeedle[] = "replace the column names";
constexpr char kAnnotationNeedle[] =
    "natural language annotations to the following";

/// Fails every prompt containing `needle` with a fixed status; delegates
/// everything else to the inner model.
class FailMatchingChatModel : public llm::ChatModel {
 public:
  FailMatchingChatModel(const llm::ChatModel* inner, std::string needle,
                        Status failure = Status::Unavailable("injected"))
      : inner_(inner), needle_(std::move(needle)),
        failure_(std::move(failure)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    if (llm::RenderPrompt(prompt).find(needle_) != std::string::npos) {
      return failure_;
    }
    return inner_->Complete(prompt, options);
  }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  Status failure_;
};

/// Answers every prompt containing `needle` with a fixed completion (one
/// with no extractable DVQ, for the empty-extraction paths); delegates
/// everything else.
class AnswerMatchingChatModel : public llm::ChatModel {
 public:
  AnswerMatchingChatModel(const llm::ChatModel* inner, std::string needle,
                          std::string answer)
      : inner_(inner), needle_(std::move(needle)),
        answer_(std::move(answer)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    if (llm::RenderPrompt(prompt).find(needle_) != std::string::npos) {
      return answer_;
    }
    return inner_->Complete(prompt, options);
  }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  std::string answer_;
};

/// Fails only the first prompt containing `needle` (a one-shot transient
/// fault), then delegates forever after.
class FlakyOnceChatModel : public llm::ChatModel {
 public:
  FlakyOnceChatModel(const llm::ChatModel* inner, std::string needle)
      : inner_(inner), needle_(std::move(needle)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    if (llm::RenderPrompt(prompt).find(needle_) != std::string::npos &&
        !failed_once_.exchange(true)) {
      return Status::Unavailable("flaky backend");
    }
    return inner_->Complete(prompt, options);
  }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  mutable std::atomic<bool> failed_once_{false};
};

TEST_F(GredFixture, DegradedRetunerFallsBackToGeneratorDvq) {
  FailMatchingChatModel failing(llm_, kRetuneNeedle);
  Gred model(corpus_, &failing);
  GredConfig no_rtn;
  no_rtn.enable_retuner = false;
  Gred reference(corpus_, llm_, no_rtn);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.dvq_rtn.empty());  // the stage produced nothing
  EXPECT_TRUE(trace.rtn_degraded);
  EXPECT_FALSE(trace.dbg_degraded);
  EXPECT_EQ(model.stage_stats().retune_degraded, 1u);
  // The degraded pipeline behaves exactly like one with no retuner.
  Result<dvq::DVQ> expected = reference.Translate(ex.nlq, db->data);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(out.value().ToString(), expected.value().ToString());
}

TEST_F(GredFixture, DegradedDebuggerFallsBackToRetunerDvq) {
  FailMatchingChatModel failing(llm_, kDebugNeedle);
  Gred model(corpus_, &failing);
  const dataset::Example& ex = suite_->test_clean[1];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(trace.dvq_rtn.empty());
  EXPECT_TRUE(trace.dvq_dbg.empty());
  EXPECT_FALSE(trace.rtn_degraded);
  EXPECT_TRUE(trace.dbg_degraded);
  EXPECT_EQ(model.stage_stats().debug_degraded, 1u);
  // The returned DVQ is the retuner's output, parsed.
  Result<dvq::DVQ> retuned = dvq::Parse(trace.dvq_rtn);
  ASSERT_TRUE(retuned.ok());
  EXPECT_EQ(out.value().ToString(), retuned.value().ToString());
}

TEST_F(GredFixture, DegradedAnnotationFailureSkipsDebugger) {
  FailMatchingChatModel failing(llm_, kAnnotationNeedle);
  Gred model(corpus_, &failing);
  const dataset::Example& ex = suite_->test_schema[0];
  const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(trace.dvq_dbg.empty());
  EXPECT_TRUE(trace.dbg_degraded);
  EXPECT_EQ(model.stage_stats().debug_degraded, 1u);
  // Annotation failures are excluded from the PrepareAnnotations count.
  Result<std::size_t> prepared = model.PrepareAnnotations(suite_->databases);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared.value(), 0u);
}

TEST_F(GredFixture, DegradedTraceNeverClaimsCarriedForwardOutput) {
  // A retuner completion with no extractable DVQ must not be recorded as
  // the stage's output (the old trace reported the generator's DVQ as
  // dvq_rtn); it leaves the trace empty and marks the stage degraded.
  AnswerMatchingChatModel refusing(llm_, kRetuneNeedle,
                                   "I cannot help with that request.");
  Gred model(corpus_, &refusing);
  const dataset::Example& ex = suite_->test_clean[2];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.dvq_rtn.empty());
  EXPECT_TRUE(trace.rtn_degraded);
}

TEST_F(GredFixture, GeneratorFailureSurfacesError) {
  FailMatchingChatModel failing(llm_, kGenerationNeedle);
  Gred model(corpus_, &failing);
  const dataset::Example& ex = suite_->test_clean[3];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Result<dvq::DVQ> out = model.Translate(ex.nlq, db->data);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTransient());
  Gred::StageStats stats = model.stage_stats();
  EXPECT_EQ(stats.retune_degraded, 0u);
  EXPECT_EQ(stats.debug_degraded, 0u);
}

TEST_F(GredFixture, RetryRecoversDegradableStage) {
  FlakyOnceChatModel flaky(llm_, kRetuneNeedle);
  llm::RetryingChatModel retrying(&flaky, llm::RetryConfig{});
  Gred model(corpus_, &retrying);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(trace.rtn_degraded);
  EXPECT_FALSE(trace.dvq_rtn.empty());
  EXPECT_EQ(model.stage_stats().retune_degraded, 0u);
  EXPECT_EQ(retrying.stats().retries, 1u);
}

TEST_F(GredFixture, DegradedFaultInjectedRunsAreThreadCountInvariant) {
  // The same examples translated serially and by four threads, each run
  // on a fresh fault-injecting stack, must produce identical outcomes:
  // fault draws depend only on (seed, prompt, attempt) and annotation
  // outcomes are prewarmed, never on scheduling.
  const std::size_t n = std::min<std::size_t>(12, suite_->test_clean.size());
  llm::FaultConfig faults;
  faults.transient_rate = 0.3;
  faults.truncate_rate = 0.15;
  faults.garbage_rate = 0.15;
  llm::RetryConfig retry;
  retry.max_attempts = 3;
  auto run = [&](std::size_t threads) {
    llm::FaultInjectingChatModel injector(llm_, faults);
    llm::RetryingChatModel retrying(&injector, retry);
    Gred model(corpus_, &retrying);
    (void)model.PrepareAnnotations(suite_->databases);
    std::vector<std::string> outcomes(n);
    auto score = [&](std::size_t i) {
      const dataset::Example& ex = suite_->test_clean[i];
      const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
      Result<dvq::DVQ> out = model.Translate(ex.nlq, db->data);
      outcomes[i] = out.ok() ? out.value().ToString()
                             : out.status().ToString();
    };
    if (threads <= 1) {
      for (std::size_t i = 0; i < n; ++i) score(i);
    } else {
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          for (std::size_t i = t; i < n; i += threads) score(i);
        });
      }
      for (std::thread& w : workers) w.join();
    }
    return outcomes;
  };
  std::vector<std::string> serial = run(1);
  std::vector<std::string> parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

TEST_F(GredFixture, GeneratorOverStageBudgetSurfacesResourceExhausted) {
  // A budget the generator's own DVQ exceeds leaves nothing to fall
  // back to: both refinement candidates trip too, and Translate returns
  // the typed budget error instead of a DVQ.
  GredConfig tiny_budget;
  tiny_budget.stage_limits.deadline_ticks = 2;
  Gred model(corpus_, llm_, tiny_budget);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted()) << out.status().ToString();
  EXPECT_FALSE(trace.dvq_gen.empty());
  EXPECT_TRUE(trace.rtn_degraded);
  EXPECT_TRUE(trace.dbg_degraded);
  Gred::StageStats stats = model.stage_stats();
  EXPECT_EQ(stats.retune_budget_trips, 1u);
  EXPECT_EQ(stats.debug_budget_trips, 1u);
}

/// Records the last prompt containing `needle`; delegates every call.
class CapturingChatModel : public llm::ChatModel {
 public:
  CapturingChatModel(const llm::ChatModel* inner, std::string needle)
      : inner_(inner), needle_(std::move(needle)) {}

  Result<std::string> Complete(
      const llm::Prompt& prompt,
      const llm::ChatOptions& options) const override {
    std::string rendered = llm::RenderPrompt(prompt);
    if (rendered.find(needle_) != std::string::npos) {
      captured_ = std::move(rendered);
    }
    return inner_->Complete(prompt, options);
  }

  const std::string& captured() const { return captured_; }

 private:
  const llm::ChatModel* inner_;
  std::string needle_;
  mutable std::string captured_;  // single-threaded tests only
};

TEST_F(GredFixture, DebuggerLintEvidenceIgnoresStageBudget) {
  // The debugger's lint evidence is rendered for any parseable incoming
  // DVQ, even one over the stage budget: the same prompt as with no
  // budget. Only the return rejects the over-budget DVQ.
  GredConfig linted;
  linted.enable_lint = true;
  linted.enable_retuner = false;  // the generator's DVQ enters the debugger
  GredConfig budgeted = linted;
  budgeted.stage_limits.deadline_ticks = 2;
  for (const dataset::Example& ex : suite_->test_schema) {
    const dataset::GeneratedDatabase* db = suite_->FindRobDb(ex.db_name);
    CapturingChatModel free_llm(llm_, kDebugNeedle);
    Gred unlimited(corpus_, &free_llm, linted);
    ASSERT_TRUE(unlimited.Translate(ex.nlq, db->data).ok());
    if (free_llm.captured().find("Static Analysis Findings") ==
        std::string::npos) {
      continue;  // a clean generator DVQ: no evidence to compare
    }
    CapturingChatModel tight_llm(llm_, kDebugNeedle);
    Gred tight(corpus_, &tight_llm, budgeted);
    Result<dvq::DVQ> out = tight.Translate(ex.nlq, db->data);
    ASSERT_FALSE(out.ok());
    EXPECT_TRUE(out.status().IsResourceExhausted());
    EXPECT_EQ(tight_llm.captured(), free_llm.captured());
    return;
  }
  FAIL() << "no schema-variant example gave the debugger lint evidence";
}

// --- Refinement-stage acceptance, run against each stage -------------------

/// One refinement stage: the needle that picks out its prompt, and
/// accessors for its own trace fields and counters.
struct RefinementStage {
  const char* name;
  const char* needle;
  bool retuner;

  const std::string& dvq(const Gred::Trace& t) const {
    return retuner ? t.dvq_rtn : t.dvq_dbg;
  }
  bool degraded(const Gred::Trace& t) const {
    return retuner ? t.rtn_degraded : t.dbg_degraded;
  }
  bool lint_rejected(const Gred::Trace& t) const {
    return retuner ? t.rtn_lint_rejected : t.dbg_lint_rejected;
  }
  bool repaired(const Gred::Trace& t) const {
    return retuner ? t.rtn_repaired : t.dbg_repaired;
  }
  std::uint64_t degraded(const Gred::StageStats& s) const {
    return retuner ? s.retune_degraded : s.debug_degraded;
  }
  std::uint64_t budget_trips(const Gred::StageStats& s) const {
    return retuner ? s.retune_budget_trips : s.debug_budget_trips;
  }
  std::uint64_t lint_trips(const Gred::StageStats& s) const {
    return retuner ? s.retune_lint_trips : s.debug_lint_trips;
  }
  std::uint64_t repairs(const Gred::StageStats& s) const {
    return retuner ? s.retune_repairs : s.debug_repairs;
  }
};

void PrintTo(const RefinementStage& stage, std::ostream* os) {
  *os << stage.name;
}

class GredStage : public GredFixture,
                  public ::testing::WithParamInterface<RefinementStage> {};

TEST_P(GredStage, RepairGateRescuesLintRejectedCandidate) {
  const RefinementStage& stage = GetParam();
  // Find a clean example whose DVQ, with one select column misspelled,
  // lints broken but repairs back to error-free — the candidate shape
  // the repair gate exists for.
  const dataset::Example* example = nullptr;
  const dataset::GeneratedDatabase* db = nullptr;
  std::string broken_text;
  for (const dataset::Example& candidate : suite_->test_clean) {
    const dataset::GeneratedDatabase* cdb =
        suite_->FindCleanDb(candidate.db_name);
    if (cdb == nullptr) continue;
    analysis::DvqAnalyzer analyzer(&cdb->data.db_schema());
    if (!analyzer.Analyze(candidate.dvq).empty()) continue;
    dvq::DVQ broken = candidate.dvq;
    dvq::SelectExpr* victim = nullptr;
    for (dvq::SelectExpr& e : broken.query.select) {
      if (e.col.column != "*") {
        victim = &e;
        break;
      }
    }
    if (victim == nullptr) continue;
    victim->col.column += victim->col.column.back();  // double the last char
    if (!analysis::HasErrors(analyzer.Analyze(broken))) continue;
    analysis::DvqRepairer repairer(&cdb->data.db_schema());
    if (!repairer.Repair(broken).success) continue;
    example = &candidate;
    db = cdb;
    broken_text = broken.ToString();
    break;
  }
  ASSERT_NE(example, nullptr) << "no repairable corpus mutant found";

  // The stage always answers with the broken DVQ. Lint alone rejects it
  // (degrade, keep the previous DVQ); lint + repair rescues it (accept
  // the repaired candidate, nothing degrades).
  AnswerMatchingChatModel broken_stage(llm_, stage.needle, broken_text);
  GredConfig lint_only;
  lint_only.enable_lint = true;
  Gred linted(corpus_, &broken_stage, lint_only);
  Gred::Trace lint_trace;
  Result<dvq::DVQ> rejected =
      linted.TranslateWithTrace(example->nlq, db->data, &lint_trace);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_TRUE(stage.lint_rejected(lint_trace));
  EXPECT_TRUE(stage.degraded(lint_trace));
  EXPECT_FALSE(stage.repaired(lint_trace));
  EXPECT_TRUE(stage.dvq(lint_trace).empty());
  EXPECT_EQ(stage.degraded(linted.stage_stats()), 1u);
  EXPECT_EQ(stage.lint_trips(linted.stage_stats()), 1u);
  EXPECT_EQ(stage.repairs(linted.stage_stats()), 0u);

  GredConfig with_repair = lint_only;
  with_repair.enable_repair = true;
  Gred repairing(corpus_, &broken_stage, with_repair);
  Gred::Trace trace;
  Result<dvq::DVQ> rescued =
      repairing.TranslateWithTrace(example->nlq, db->data, &trace);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_TRUE(stage.repaired(trace));
  EXPECT_FALSE(stage.lint_rejected(trace));
  EXPECT_FALSE(stage.degraded(trace));
  EXPECT_EQ(stage.degraded(repairing.stage_stats()), 0u);
  EXPECT_EQ(stage.repairs(repairing.stage_stats()), 1u);
  EXPECT_EQ(stage.lint_trips(repairing.stage_stats()), 0u);
  // The accepted DVQ is the repaired candidate: not the broken text,
  // and error-free against the schema.
  EXPECT_FALSE(stage.dvq(trace).empty());
  EXPECT_NE(stage.dvq(trace), broken_text);
  Result<dvq::DVQ> accepted = dvq::Parse(stage.dvq(trace));
  ASSERT_TRUE(accepted.ok());
  analysis::DvqAnalyzer analyzer(&db->data.db_schema());
  EXPECT_FALSE(analysis::HasErrors(analyzer.Analyze(accepted.value())));
}

TEST_P(GredStage, StageBudgetTripKeepsPreviousDvq) {
  const RefinementStage& stage = GetParam();
  // A well-formed DVQ of about 2000 tokens: one accounted tick per token
  // puts it over a 1000-tick stage budget that every corpus DVQ fits.
  std::string oversized =
      "Visualize BAR SELECT city , COUNT(city) FROM t WHERE city = 'a'";
  for (int i = 0; i < 500; ++i) oversized += " OR city = 'a'";
  oversized += " GROUP BY city";
  ASSERT_TRUE(dvq::Parse(oversized).ok());

  GredConfig budgeted;
  budgeted.stage_limits.deadline_ticks = 1000;
  AnswerMatchingChatModel oversizing(llm_, stage.needle, oversized);
  Gred model(corpus_, &oversizing, budgeted);
  const dataset::Example& ex = suite_->test_clean[0];
  const dataset::GeneratedDatabase* db = suite_->FindCleanDb(ex.db_name);
  Gred::Trace trace;
  Result<dvq::DVQ> out = model.TranslateWithTrace(ex.nlq, db->data, &trace);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(stage.degraded(trace));
  EXPECT_FALSE(stage.lint_rejected(trace));
  EXPECT_TRUE(stage.dvq(trace).empty());  // the stage produced nothing
  Gred::StageStats stats = model.stage_stats();
  EXPECT_EQ(stage.degraded(stats), 1u);
  EXPECT_EQ(stage.budget_trips(stats), 1u);
  EXPECT_EQ(stats.retune_budget_trips + stats.debug_budget_trips, 1u);

  // The previous stage's DVQ carries forward. A tripped retuner behaves
  // like a pipeline without one; a tripped debugger returns the
  // retuner's DVQ.
  std::string expected;
  if (stage.retuner) {
    GredConfig no_rtn = budgeted;
    no_rtn.enable_retuner = false;
    Gred reference(corpus_, llm_, no_rtn);
    Result<dvq::DVQ> ref = reference.Translate(ex.nlq, db->data);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected = ref.value().ToString();
  } else {
    ASSERT_FALSE(trace.dvq_rtn.empty());
    Result<dvq::DVQ> retuned = dvq::Parse(trace.dvq_rtn);
    ASSERT_TRUE(retuned.ok());
    expected = retuned.value().ToString();
  }
  EXPECT_EQ(out.value().ToString(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    RefinementStages, GredStage,
    ::testing::Values(RefinementStage{"Retuner", kRetuneNeedle, true},
                      RefinementStage{"Debugger", kDebugNeedle, false}));

}  // namespace
}  // namespace gred::core
