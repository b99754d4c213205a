// Spans and counters recorded by the benchmark around its own calls into
// each layer's public functions, kept in memory, dumped at exit, and
// summarized into the per-layer metrics. Tracing inside src/ is not used.
//
// A traced run alternates 250 ms slices with request spans on and off;
// latencies from the two kinds of slices give trace.overhead_frac.
// Rare spans (writer, restart, offline replays) are recorded throughout.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request_id = 0;  // pairs client and server spans

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  /// True for the whole of a traced run.
  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }

  /// True while request spans are being recorded (traced run, "on" slice).
  bool slice_on() const { return slice_on_.load(std::memory_order_relaxed); }
  void set_slice(bool on) { slice_on_.store(on, std::memory_order_relaxed); }

  /// Records a finished span from any thread; its parent is the innermost
  /// open Scope on the calling thread.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request_id = 0);

  /// Opens a span on this thread; spans recorded on the thread until it
  /// closes take it as their parent.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    const char* name_;
    std::uint64_t id_;
    std::uint64_t parent_;
    std::int64_t start_;
  };

  void counter(const std::string& name, double value);

  /// All spans and counters recorded so far (merged across threads).
  std::vector<Span> spans() const;
  std::map<std::string, double> counters() const;

  /// Writes spans and counters as tab-separated lines.
  void dump(const std::string& path) const;

 private:
  struct Buffer {
    std::mutex mu;  // taken by the owning thread per record, and by readers
    std::vector<Span> spans;
  };
  Buffer& local();

  bool active_ = false;
  std::atomic<bool> slice_on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards buffers_ and counters_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::map<std::string, double> counters_;
};

Tracer& tracer();

/// Reads a dump back (the summarizer's input).
bool load_dump(const std::string& path, std::vector<Span>& spans,
               std::map<std::string, double>& counters);

/// Derives every per-layer metric from spans and counters.
std::map<std::string, double> summarize(
    const std::vector<Span>& spans,
    const std::map<std::string, double>& counters);

/// Value at quantile q (0..1) of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);

}  // namespace perfbench
