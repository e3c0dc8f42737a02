#include "span_trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <utility>

#include "util/json.h"

namespace perfbench {

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::uint32_t ThreadKey() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t key = next.fetch_add(1) + 1;
  return key;
}

LlmStage ClassifyPrompt(const gred::llm::Prompt& prompt) {
  // The task instructions of the four Appendix C prompts.
  for (const gred::llm::ChatMessage& m : prompt) {
    if (m.role != gred::llm::ChatMessage::Role::kUser) continue;
    if (m.content.find("Generate DVQs based on") != std::string::npos) {
      return LlmStage::kGenerate;
    }
    if (m.content.find("mimic the style of the Reference DVQs") !=
        std::string::npos) {
      return LlmStage::kRetune;
    }
    if (m.content.find("replace the column names") != std::string::npos) {
      return LlmStage::kDebug;
    }
    if (m.content.find("natural language annotations") != std::string::npos) {
      return LlmStage::kAnnotate;
    }
  }
  return LlmStage::kOther;
}

const char* LlmSpanName(LlmStage stage) {
  switch (stage) {
    case LlmStage::kGenerate: return "llm.generate";
    case LlmStage::kRetune: return "llm.retune";
    case LlmStage::kDebug: return "llm.debug";
    case LlmStage::kAnnotate: return "llm.annotate";
    case LlmStage::kOther: break;
  }
  return "llm.other";
}

gred::Result<std::string> TimedChatModel::Complete(
    const gred::llm::Prompt& prompt,
    const gred::llm::ChatOptions& options) const {
  const double start = NowUs();
  gred::Result<std::string> completion = inner_->Complete(prompt, options);
  const double end = NowUs();

  LlmCall call;
  call.stage = ClassifyPrompt(prompt);
  call.span.name = LlmSpanName(call.stage);
  call.span.start_us = start;
  call.span.end_us = end;
  call.span.thread = ThreadKey();
  for (const gred::llm::ChatMessage& m : prompt) {
    call.prompt_bytes += m.content.size();
  }
  if (completion.ok()) call.completion = completion.value();
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(std::move(call));
  return completion;
}

std::vector<LlmCall> TimedChatModel::TakeCalls() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  using gred::json::Value;
  Value events = Value::Array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    Value event = Value::Object();
    event.Set("name", Value::Str(span.name));
    event.Set("ph", Value::Str("X"));
    event.Set("ts", Value::Number(span.start_us));
    event.Set("dur", Value::Number(span.end_us - span.start_us));
    event.Set("pid", Value::Int(1));
    event.Set("tid", Value::Int(span.thread));
    Value args = Value::Object();
    args.Set("span", Value::Int(static_cast<std::int64_t>(i)));
    args.Set("request", Value::Int(span.request));
    args.Set("parent", Value::Int(span.parent));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  Value doc = Value::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", Value::Str("ms"));
  std::ofstream out(path);
  out << doc.Dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
