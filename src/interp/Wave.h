//===- interp/Wave.h - Per-cycle waveform sinks ----------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution observability for the simulation engines. The semantics of a
/// Reticle program are defined over per-cycle traces (Section 6.2); this
/// layer makes those traces *watchable*: every engine streams every port
/// and named internal signal, cycle by cycle, into a `sim::WaveSink`.
///
/// Observation is word-level, in the "scale with data, not code" shape of
/// the bytecode VM itself: a signal's value is never materialized as a bit
/// vector on the hot path. The pieces:
///
///  - `WaveLayout` — where each signal lives in an engine's table of
///    64-bit words: one `WaveSlice` `{word, mask, bit offset}` per word a
///    signal occupies, built from `sim::SignalInfo`'s Base/LaneWidth/
///    Lanes/Width. Sinks receive it once.
///  - `WaveSink` — the engine-facing interface. `begin` declares the
///    signal list plus the layout; then one `cycle` call per cycle carries
///    a `WaveFrame`: the current and previous masked slice values (indexed
///    by slice) and the ids of the signals that changed. `finish` flushes;
///    an aborted run (simulation error, cycle budget) still produces
///    well-formed, truncated-but-parseable output, mirroring the
///    remark-flush contract of failed compiles.
///  - `WaveRecorder` — the engine-side front end. The VM hands it its word
///    table; it gathers the slices, detects changes with one XOR per word
///    against the previous cycle, feeds the `sim.signals` / `sim.events` /
///    `sim.toggles` counters (toggles by popcount), and forwards to an
///    optional sink. The tree engines (oracles, not fast paths) stage each
///    signal's bits into the same layout through the recorder's `stage`
///    shim. With no sink attached every call is a no-op, so engines carry
///    one unconditionally.
///  - Sinks — `VcdWriter` emits standard VCD (GTKWave / Surfer) and
///    `WaveJsonWriter` the re-parseable `reticle-wave-v1` JSONL stream that
///    `json_check wave_diff` joins, both formatting straight from the
///    words; `ToggleCoverageSink` counts per-bit edges; `WaveFanout`
///    drives several sinks from one run; and `WaveCapture` keeps the
///    per-cycle words in memory so `reticlec` can replay several engine
///    runs (with per-engine name prefixes) into one stream after the fact.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_INTERP_WAVE_H
#define RETICLE_INTERP_WAVE_H

#include "obs/Context.h"
#include "support/Result.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reticle {
namespace sim {

/// One declared waveform signal: a name, a flattened bit width, and which
/// side of the design it lives on. The kind lets `wave_diff` restrict the
/// differential oracle to the port signals both engines share.
struct WaveSignal {
  enum class Kind : uint8_t { Input, Output, Internal };

  std::string Name;
  unsigned Width = 1;
  Kind SigKind = Kind::Internal;

  WaveSignal() = default;
  WaveSignal(std::string Name, unsigned Width, Kind K = Kind::Internal)
      : Name(std::move(Name)), Width(Width == 0 ? 1 : Width), SigKind(K) {}
};

/// Renders flattened bits (LSB first, as Value::toBits produces) as the
/// MSB-first binary string used by `reticle-wave-v1` records.
std::string bitsToString(const std::vector<bool> &Bits);

/// One table word's share of a signal: the word's bits under `Mask` (a
/// run of low bits) are the signal's flattened bits starting at `Bit`.
struct WaveSlice {
  uint32_t Word = 0; ///< table word the engine keeps the bits in
  uint32_t Bit = 0;  ///< flattened (LSB-first) position of the word's bit 0
  uint64_t Mask = 0;

  /// Number of signal bits the slice carries.
  unsigned width() const;
};

/// How a signal list maps onto table words: signal `Id` owns the slices
/// `[First[Id], First[Id + 1])`, in ascending bit order.
struct WaveLayout {
  std::vector<WaveSlice> Slices;
  std::vector<uint32_t> First{0};

  /// Appends the next signal: \p Width flattened bits kept \p LaneWidth
  /// bits per word (the low bits; higher bits are masked off) in \p Lanes
  /// consecutive words from \p Base — the `sim::SignalInfo` shape.
  void add(uint32_t Base, unsigned Width, unsigned LaneWidth,
           unsigned Lanes);

  size_t signals() const { return First.size() - 1; }

  /// Signal \p Id's flattened bit count.
  unsigned width(unsigned Id) const;

  /// Writes signal \p Id's width() bits, MSB first, from the per-slice
  /// values \p Vals (a frame's `Cur` or `Prev`, or a captured cycle) to
  /// \p P; returns the end of the text.
  char *writeBits(char *P, const uint64_t *Vals, unsigned Id) const;

  /// Appends the same text to \p Out.
  void appendBits(std::string &Out, const uint64_t *Vals, unsigned Id) const;

  /// Signal \p Id's bits, LSB first, decoded from \p Vals.
  std::vector<bool> bits(const uint64_t *Vals, unsigned Id) const;
};

/// One observed cycle as a sink receives it. `Cur` and `Prev` hold one
/// masked value per layout slice; only the slices of the reported signals
/// are meaningful.
struct WaveFrame {
  uint64_t Cycle = 0;
  /// The reported signals, `[Begin, End)`. Engines report every signal in
  /// one frame per cycle; a replay whose sources ended at different cycles
  /// reports only the live sources' signals, one frame per source.
  uint32_t Begin = 0;
  uint32_t End = 0;
  const uint64_t *Cur = nullptr;
  /// The previous report's values. On a signal's first report they equal
  /// `Cur`: the first value is a baseline, not a transition.
  const uint64_t *Prev = nullptr;
  /// Ascending ids of the reported signals whose value differs from the
  /// previous report; every reported signal on its first report.
  std::span<const uint32_t> Changed;
};

/// The engine-facing waveform interface. Calls arrive in strict order:
/// one `begin`, then `cycle` frames in nondecreasing cycle order (the ids
/// index the begin() signal list), then one `finish`.
class WaveSink {
public:
  virtual ~WaveSink() = default;

  /// Declares the full signal set and its word layout (one entry per
  /// signal). Must be called exactly once, first.
  virtual Status begin(const std::vector<WaveSignal> &Signals,
                       const WaveLayout &Layout) = 0;

  /// Reports one cycle's settled values (see WaveFrame).
  virtual void cycle(const WaveFrame &F) = 0;

  /// Flushes. \p Aborted marks a run that stopped early (error or cycle
  /// budget); the output must still be well-formed.
  virtual Status finish(bool Aborted) = 0;
};

/// The engine-side recorder: slice gathering, change detection, counters,
/// optional sink. Engines construct one per run; with a null sink every
/// call is a cheap no-op, so the engine's per-cycle loop needs no branches
/// beyond `active()`.
class WaveRecorder {
public:
  WaveRecorder(WaveSink *Sink, const obs::Context &Ctx);

  bool active() const { return Sink != nullptr; }

  /// Declares signals the engine keeps in its own word table at the
  /// places \p Layout names; counts them under `sim.signals`.
  Status begin(std::vector<WaveSignal> Signals, WaveLayout Layout);

  /// Declares signals the engine hands over bit by bit through stage():
  /// each is packed LSB first, 64 bits per word, into the recorder's own
  /// staging table.
  Status begin(std::vector<WaveSignal> Signals);

  /// The tree-engine shim: packs \p Bits (LSB first; missing bits read
  /// as 0, extra bits are dropped) into signal \p Id's staging words.
  void stage(unsigned Id, const std::vector<bool> &Bits);

  /// Observes cycle \p Cycle: gathers every slice from \p Words (the
  /// engine's table; null means the staging table), counts one
  /// `sim.events` per signal and the flipped bits under `sim.toggles` (the
  /// full width on first sight), and forwards one frame.
  void cycle(uint64_t Cycle, const uint64_t *Words = nullptr);

  Status finish(bool Aborted);

private:
  WaveSink *Sink = nullptr;
  obs::Counter *Events = nullptr;
  obs::Counter *Toggles = nullptr;
  obs::Counter *SignalsCount = nullptr;
  std::vector<WaveSignal> Signals;
  WaveLayout Layout;
  std::vector<uint64_t> Staged;
  std::vector<uint64_t> Cur;
  std::vector<uint64_t> Prev;
  /// The signal each slice belongs to.
  std::vector<uint32_t> SignalOf;
  /// Room for every id; a frame uses a prefix.
  std::vector<uint32_t> Changed;
  uint64_t TotalWidth = 0;
  bool Seen = false;
};

/// Drives several sinks from one run, in attachment order (`reticlec`'s
/// VCD, wave-JSON and toggle-coverage sinks on a single-engine `--run`).
class WaveFanout : public WaveSink {
public:
  void add(WaveSink &S) { Sinks.push_back(&S); }
  bool empty() const { return Sinks.empty(); }

  Status begin(const std::vector<WaveSignal> &Signals,
               const WaveLayout &Layout) override;
  void cycle(const WaveFrame &F) override;
  /// Finishes every sink; the first failure is returned.
  Status finish(bool Aborted) override;

private:
  std::vector<WaveSink *> Sinks;
};

/// An in-memory sink: keeps every frame's slice words so a run (complete
/// or aborted) can be inspected by tests or replayed into other sinks
/// afterwards. Values decode to bits only on demand.
class WaveCapture : public WaveSink {
public:
  struct Frame {
    uint64_t Cycle = 0;
    uint32_t Begin = 0;
    uint32_t End = 0;
    /// The frame's `Cur`: one value per layout slice (only the reported
    /// signals' slices are meaningful).
    std::vector<uint64_t> Words;
    std::vector<uint32_t> Changed;
  };

  Status begin(const std::vector<WaveSignal> &Signals,
               const WaveLayout &Layout) override;
  void cycle(const WaveFrame &F) override;
  Status finish(bool Aborted) override;

  const std::vector<WaveSignal> &signals() const { return Sigs; }
  const WaveLayout &layout() const { return Layout; }
  uint64_t cycles() const {
    return Frames.empty() ? 0 : Frames.back().Cycle + 1;
  }
  bool finished() const { return Done; }
  bool aborted() const { return Aborted; }
  const std::vector<Frame> &frames() const { return Frames; }

  /// The bits (LSB first) signal \p Id reported at \p Cycle, or nothing
  /// when it did not report.
  std::optional<std::vector<bool>> valueAt(uint64_t Cycle,
                                           unsigned Id) const;
  std::optional<std::vector<bool>> valueAt(uint64_t Cycle,
                                           std::string_view Name) const;

  /// Whether signal \p Id's report at \p Cycle was marked changed.
  bool changedAt(uint64_t Cycle, unsigned Id) const;

private:
  const Frame *frameOf(uint64_t Cycle, unsigned Id) const;

  std::vector<WaveSignal> Sigs;
  WaveLayout Layout;
  std::vector<Frame> Frames;
  bool Done = false;
  bool Aborted = false;
};

/// Replays one or more captured runs into \p Out as a single stream.
/// Each source's signals are renamed `<prefix>.<name>` when its prefix is
/// nonempty (`reticlec` uses `interp` / `netlist` / `vm-ir` /
/// `vm-netlist` in `--sim=both` runs). Cycles are interleaved in time
/// order; the replay finishes aborted when any source run aborted.
Status replay(
    const std::vector<std::pair<const WaveCapture *, std::string>> &Sources,
    WaveSink &Out);

/// Dynamic toggle coverage: turns per-cycle frames into per-signal-bit
/// transition bins in the "sim.toggle" space of a coverage registry — bit
/// \p b of signal `name` hits `name[b]:01` on a 0->1 transition and
/// `name[b]:10` on 1->0 (bit indices are the flattened LSB-first
/// positions). The first reported value of a signal sets its baseline and
/// records no transition; there is no x->v toggle. Edges are counted per
/// bit with word masks (`(prev ^ cur) & cur` rises, `& prev` falls); bins
/// are named only in finish(), which folds them into the registry in one
/// bulk merge — also on an aborted run.
class ToggleCoverageSink : public WaveSink {
public:
  explicit ToggleCoverageSink(obs::Coverage &Cov) : Cov(Cov) {}

  Status begin(const std::vector<WaveSignal> &Signals,
               const WaveLayout &Layout) override;
  void cycle(const WaveFrame &F) override;
  Status finish(bool Aborted) override;

private:
  obs::Coverage &Cov;
  std::vector<WaveSignal> Sigs;
  WaveLayout Layout;
  /// Counter index of each slice's bit 0; the per-bit counters of all
  /// signals are laid end to end.
  std::vector<uint64_t> SliceBase;
  std::vector<uint64_t> Rises;
  std::vector<uint64_t> Falls;
};

/// Writes standard VCD into an in-memory buffer (the driver streams it to
/// a file or stdout after the run, so aborted runs still flush). Signal
/// names containing a '.' are split into `$scope module` groups on the
/// first dot; all signals dump as `x` before their first recorded value,
/// and unchanged values are suppressed.
class VcdWriter : public WaveSink {
public:
  explicit VcdWriter(std::string Top = "reticle");

  Status begin(const std::vector<WaveSignal> &Signals,
               const WaveLayout &Layout) override;
  void cycle(const WaveFrame &F) override;
  Status finish(bool Aborted) override;

  const std::string &text() const { return Out; }

  /// The short identifier code assigned to signal \p Id (base-94 over the
  /// printable ASCII range, multi-character past 94 signals).
  static std::string idCode(unsigned Id);

private:
  std::string Top;
  std::string Out;
  std::vector<WaveSignal> Sigs;
  WaveLayout Layout;
  /// Per signal, the value-change line's tail: " <code>\n" for vectors,
  /// "<code>\n" for scalars, and the whole line's length (cached at
  /// begin()).
  std::vector<std::string> Tails;
  std::vector<size_t> LineLen;
  uint64_t LastCycle = 0;
  bool AnyCycle = false;
};

/// Writes the `reticle-wave-v1` JSONL stream: one header line declaring
/// the signal set, one record per reported signal per cycle (no
/// suppression, so wave_diff joins without carrying state), and one footer
/// line with the cycle count and abort flag.
class WaveJsonWriter : public WaveSink {
public:
  WaveJsonWriter(std::string Top, std::string Engine);

  Status begin(const std::vector<WaveSignal> &Signals,
               const WaveLayout &Layout) override;
  void cycle(const WaveFrame &F) override;
  Status finish(bool Aborted) override;

  const std::string &text() const { return Out; }

private:
  std::string Top;
  std::string Engine;
  std::string Out;
  WaveLayout Layout;
  /// Per signal, the record's middle: `,"signal":<name>,"value":"` (cached
  /// at begin()).
  std::vector<std::string> Keys;
  uint64_t Cycles = 0;
};

} // namespace sim
} // namespace reticle

#endif // RETICLE_INTERP_WAVE_H
