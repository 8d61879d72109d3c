//===- perfbench/Spans.h - Span log for the traced run ----------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: a span per call into a layer, recorded
/// from outside the library. A span holds a name, a tag (the program or
/// simulation cell it worked on), start and end times, and the index of
/// the span that was open when it began. Spans stay in memory until the
/// run ends; self time is a span's duration minus its children's.
///
/// A disabled log records nothing, so the untraced run pays one branch
/// per call site.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_PERFBENCH_SPANS_H
#define RETICLE_PERFBENCH_SPANS_H

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Span {
  std::string Name;
  std::string Tag;
  double StartMs = 0.0;
  double EndMs = 0.0;
  int Parent = -1;
  double ChildMs = 0.0; ///< summed duration of direct children

  double ms() const { return EndMs - StartMs; }
  double selfMs() const { return ms() - ChildMs; }
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when the log is disabled.
  int open(std::string Name, std::string Tag = {}) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = std::move(Name);
    S.Tag = std::move(Tag);
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.StartMs = msBetween(Origin, Clock::now());
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }

  /// Closes span \p Id, which must be the innermost open one.
  void close(int Id) {
    if (Id < 0)
      return;
    Span &S = Spans[Id];
    S.EndMs = msBetween(Origin, Clock::now());
    Stack.pop_back();
    if (S.Parent >= 0)
      Spans[S.Parent].ChildMs += S.ms();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Direct children of span \p Id, in start order.
  std::vector<int> children(int Id) const {
    std::vector<int> Out;
    // Spans are stored in start order, so the children of Id follow it
    // and begin before it ends.
    for (size_t I = static_cast<size_t>(Id) + 1;
         I < Spans.size() && Spans[I].StartMs <= Spans[Id].EndMs; ++I)
      if (Spans[I].Parent == Id)
        Out.push_back(static_cast<int>(I));
    return Out;
  }

private:
  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a no-op on a disabled log.
class Scope {
public:
  Scope(SpanLog &Log, std::string Name, std::string Tag = {})
      : Log(Log), Id(Log.open(std::move(Name), std::move(Tag))) {}
  ~Scope() { Log.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  int Id;
};

} // namespace perfbench

#endif // RETICLE_PERFBENCH_SPANS_H
