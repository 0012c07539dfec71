// In-memory span log for the traced run. Each span records its name, start
// and end (steady clock), the span that was open when it began (its parent)
// and the step it belongs to (-1 outside steps). Spans are only appended
// while a run is going; they are written out once, at the end.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int step = -1;
  double seconds() const { return seconds_between(start, end); }
};

class SpanLog {
 public:
  // Opens a span on construction and closes it on destruction; a null log
  // records nothing. Scopes nest strictly (one thread drives the
  // simulation), so the innermost open span is the parent of the next one.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (!log_) return;
      index_ = static_cast<int>(log_->spans_.size());
      SpanRecord r;
      r.name = name;
      r.parent = log_->open_;
      r.step = log_->step_;
      log_->spans_.push_back(r);
      log_->open_ = index_;
      log_->spans_[index_].start = Clock::now();
    }
    ~Scope() {
      if (!log_) return;
      log_->spans_[index_].end = Clock::now();
      log_->open_ = log_->spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = 0;
  };

  void set_step(int step) { step_ = step; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Total duration and self time (duration minus the part covered by child
  // spans) of every span called `name`; `steps_only` skips set-up spans.
  struct Totals {
    double total = 0.0;
    double self = 0.0;
    int count = 0;
  };
  Totals totals(const std::string& name, bool steps_only) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.seconds();
    Totals t;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      if (name != s.name || (steps_only && s.step < 0)) continue;
      t.total += s.seconds();
      t.self += s.seconds() - child[i];
      ++t.count;
    }
    return t;
  }

  // Chrome trace-event JSON (open in Perfetto or chrome://tracing); the
  // step and the parent's index ride along as event args.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"step\":%d}}\n",
                   i ? "," : "", s.name, seconds_between(t0, s.start) * 1e6,
                   s.seconds() * 1e6, i, s.parent, s.step);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<SpanRecord> spans_;
  int open_ = -1;
  int step_ = -1;
};

}  // namespace perfbench
