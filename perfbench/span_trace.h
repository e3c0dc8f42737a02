#ifndef GREDVIS_PERFBENCH_SPAN_TRACE_H_
#define GREDVIS_PERFBENCH_SPAN_TRACE_H_

// In-memory span recording for the traced run, taken entirely from
// outside the program: the benchmark times its own calls into each
// layer and wraps the chat model Gred borrows in a span-recording
// decorator. Spans are kept in memory and written out when the run
// ends (Chrome trace-event JSON; see README.md).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "llm/chat_model.h"

namespace perfbench {

/// Microseconds on the steady clock since a process-wide origin.
double NowUs();

/// A small integer naming the calling thread (stable for its lifetime).
std::uint32_t ThreadKey();

/// One timed interval at a layer boundary. `name` points at a string
/// literal. `request` is the wire id of the request the span belongs to
/// (-1 until attributed); `parent` indexes the causing span in the same
/// list (-1 for a root).
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t request = -1;
  std::int64_t parent = -1;
  std::uint32_t thread = 0;
};

/// The LLM stages Gred prompts for, told apart by each prompt's task
/// instruction.
enum class LlmStage { kGenerate, kRetune, kDebug, kAnnotate, kOther };

LlmStage ClassifyPrompt(const gred::llm::Prompt& prompt);
/// "llm.generate", "llm.retune", "llm.debug", "llm.annotate", "llm.other".
const char* LlmSpanName(LlmStage stage);

/// One recorded chat call: its span, its stage, the prompt size and the
/// completion text (kept so the benchmark can replay the DVQ parse).
struct LlmCall {
  Span span;
  LlmStage stage = LlmStage::kOther;
  std::size_t prompt_bytes = 0;
  std::string completion;
};

/// Span-recording decorator around the chat model Gred borrows. Every
/// Complete call is forwarded unchanged and recorded with its thread and
/// interval; the benchmark later attributes calls to requests by worker
/// thread and time. Thread-safe.
class TimedChatModel : public gred::llm::ChatModel {
 public:
  explicit TimedChatModel(const gred::llm::ChatModel* inner) : inner_(inner) {}

  gred::Result<std::string> Complete(
      const gred::llm::Prompt& prompt,
      const gred::llm::ChatOptions& options) const override;

  /// Moves out every call recorded so far.
  std::vector<LlmCall> TakeCalls();

 private:
  const gred::llm::ChatModel* inner_;  // not owned
  mutable std::mutex mu_;              // guards calls_
  mutable std::vector<LlmCall> calls_;
};

/// Writes `spans` as Chrome trace-event JSON ("X" events, µs) to `path`.
/// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // GREDVIS_PERFBENCH_SPAN_TRACE_H_
