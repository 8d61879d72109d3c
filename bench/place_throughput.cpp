//===- bench/place_throughput.cpp - Placement shrink-search throughput ----------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Measures the wall-clock of the placement shrink search (Section 5's
/// area minimization) under both attempt strategies: `scratch` (a fresh
/// SAT encoding solved per probe, the oracle) and `propagate` (first-fit
/// unit propagation over the enumerated candidates, with the same CNF
/// only as a fallback when propagation fails).
/// Every FSM in the corpus is compiled through core::compileBatch
/// `Reps` times per mode, the modes interleaved run by run, and each row
/// reports the median shrink/SAT time with its min and max alongside the
/// probe mix (SAT-backed vs arithmetic precheck) and the number of
/// attempts that reached the CNF. The headline number is the `speedup`
/// block: median scratch-vs-propagate shrink time on the
/// ~256-instruction FSM, where the acceptance bar is >= 10x. Programs
/// whose shrink search never reaches the solver report `n/a` (JSON null)
/// instead of a ratio of near-zero times. Writes `BENCH_place.json`
/// ("reticle-bench-v1") in the working directory.
///
//===----------------------------------------------------------------------===//

#include "core/Batch.h"
#include "core/Compiler.h"
#include "device/Device.h"
#include "frontend/Benchmarks.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "place/Place.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace reticle;

namespace {

/// Corpus runs per mode; the reported times are medians over them.
constexpr size_t Reps = 5;

const place::SatMode Modes[] = {place::SatMode::Scratch,
                                place::SatMode::Propagate};

const char *modeName(place::SatMode Mode) {
  return Mode == place::SatMode::Scratch ? "scratch" : "propagate";
}

/// One (program, mode) measurement reduced to what the figure plots.
struct PlaceRun {
  bool Ok = false;
  std::string Error;
  double CompileMs = 0.0;
  place::PlacementStats Stats;
};

/// Median with its range over the repetitions of one (program, mode).
struct Spread {
  double Median = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

Spread spreadOf(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  double Median = N % 2 ? Samples[N / 2]
                        : (Samples[N / 2 - 1] + Samples[N / 2]) / 2.0;
  return {Median, Samples.front(), Samples.back()};
}

/// Every repetition of one (program, mode): the first run carries the
/// deterministic counters, the spreads carry the timings.
struct ModeResult {
  PlaceRun First;
  Spread ShrinkMs;
  Spread SatMs;
};

/// Compiles the whole corpus through core::compileBatch under one solver
/// mode. Jobs is pinned to 1 so the shrink-search timings are not
/// perturbed by sibling compiles on the same cores.
std::vector<PlaceRun>
runCorpus(const std::vector<std::pair<std::string, ir::Function>> &Corpus,
          place::SatMode Mode) {
  std::vector<core::BatchInput> Inputs;
  Inputs.reserve(Corpus.size());
  for (const auto &[Name, Fn] : Corpus)
    Inputs.push_back({Name, Fn.str()});

  core::BatchOptions Options;
  Options.Options.Dev = device::Device::xczu3eg();
  Options.Options.SatMode = Mode;
  Options.Jobs = 1;
  std::vector<core::BatchItem> Items = core::compileBatch(Inputs, Options);

  std::vector<PlaceRun> Out;
  Out.reserve(Items.size());
  for (const core::BatchItem &Item : Items) {
    PlaceRun R;
    if (!Item.ok()) {
      R.Error = Item.Outcome ? Item.Outcome->error()
                             : std::string("not compiled");
      Out.push_back(std::move(R));
      continue;
    }
    R.Ok = true;
    R.CompileMs = Item.Outcome->value().Times.TotalMs;
    R.Stats = Item.Outcome->value().PlaceStats;
    Out.push_back(std::move(R));
  }
  return Out;
}

/// Reduces the repetitions of one program under one mode. A failure in
/// any repetition fails the whole entry.
ModeResult summarize(const std::vector<PlaceRun> &Runs) {
  ModeResult M;
  M.First = Runs.front();
  std::vector<double> Shrink, Sat;
  for (const PlaceRun &R : Runs) {
    if (!R.Ok) {
      M.First = R;
      return M;
    }
    Shrink.push_back(R.Stats.ShrinkMs);
    Sat.push_back(R.Stats.SatMs);
  }
  M.ShrinkMs = spreadOf(Shrink);
  M.SatMs = spreadOf(Sat);
  return M;
}

obs::Json rowFor(const std::string &Size, place::SatMode Mode,
                 const ModeResult &M) {
  obs::Json Row = obs::Json::object();
  Row.set("size", Size);
  Row.set("toolchain", std::string(modeName(Mode)));
  Row.set("ok", M.First.Ok);
  if (!M.First.Ok) {
    Row.set("error", M.First.Error);
    return Row;
  }
  const place::PlacementStats &S = M.First.Stats;
  uint64_t Probes = S.IncrementalProbes + S.PrecheckProbes;
  Row.set("reps", static_cast<uint64_t>(Reps));
  Row.set("compile_ms", M.First.CompileMs);
  Row.set("shrink_ms", M.ShrinkMs.Median);
  Row.set("shrink_ms_min", M.ShrinkMs.Min);
  Row.set("shrink_ms_max", M.ShrinkMs.Max);
  Row.set("sat_ms", M.SatMs.Median);
  Row.set("sat_ms_min", M.SatMs.Min);
  Row.set("sat_ms_max", M.SatMs.Max);
  Row.set("probes", Probes);
  Row.set("sat_probes", S.IncrementalProbes);
  Row.set("precheck_probes", S.PrecheckProbes);
  Row.set("probe_ms_avg",
          S.IncrementalProbes
              ? M.ShrinkMs.Median / double(S.IncrementalProbes)
              : 0.0);
  Row.set("cnf_solves", uint64_t(S.CnfSolves));
  Row.set("conflicts", S.Conflicts);
  Row.set("max_column", uint64_t(S.MaxColumn));
  Row.set("max_row", uint64_t(S.MaxRow));
  return Row;
}

} // namespace

int main() {
  // FSM state counts picked off the xczu3eg probe profile: 16 and 32
  // settle every shrink probe in the arithmetic precheck (so they pin
  // down the fixed costs), while 43 states lowers to ~256 instructions
  // and drives real SAT probes on both axes — the corpus point the
  // paper-scale speedup claim is measured on.
  std::vector<std::pair<std::string, ir::Function>> Corpus;
  Corpus.emplace_back("fsm_16", frontend::makeFsm(16));
  Corpus.emplace_back("fsm_32", frontend::makeFsm(32));
  Corpus.emplace_back("fsm_256", frontend::makeFsm(43));

  // [mode][rep][program], modes interleaved per repetition so slow drift
  // on the machine lands on both modes alike.
  std::vector<std::vector<std::vector<PlaceRun>>> Raw(std::size(Modes));
  for (size_t Rep = 0; Rep < Reps; ++Rep)
    for (size_t M = 0; M < std::size(Modes); ++M)
      Raw[M].push_back(runCorpus(Corpus, Modes[M]));

  std::printf("Placement shrink-search throughput: FSM corpus on xczu3eg "
              "(median of %zu runs)\n\n",
              Reps);
  std::printf("  %-8s %-12s %10s %21s %10s %7s %7s %10s %9s\n", "size",
              "mode", "shrink ms", "[min, max]", "sat ms", "probes",
              "satprb", "avg ms/prb", "cnf");

  obs::Json Rows = obs::Json::array();
  // [mode][program] — kept for the speedup block below.
  std::vector<std::vector<ModeResult>> ByMode(std::size(Modes));
  for (size_t M = 0; M < std::size(Modes); ++M) {
    for (size_t I = 0; I < Corpus.size(); ++I) {
      std::vector<PlaceRun> PerRep;
      for (const std::vector<PlaceRun> &Runs : Raw[M])
        PerRep.push_back(Runs[I]);
      ModeResult R = summarize(PerRep);
      if (!R.First.Ok) {
        std::printf("  %-8s %-12s FAILED: %s\n", Corpus[I].first.c_str(),
                    modeName(Modes[M]), R.First.Error.c_str());
      } else {
        const place::PlacementStats &S = R.First.Stats;
        std::printf(
            "  %-8s %-12s %10.1f [%8.1f, %8.1f] %10.1f %7llu %7llu %10.1f "
            "%9llu\n",
            Corpus[I].first.c_str(), modeName(Modes[M]), R.ShrinkMs.Median,
            R.ShrinkMs.Min, R.ShrinkMs.Max, R.SatMs.Median,
            (unsigned long long)(S.IncrementalProbes + S.PrecheckProbes),
            (unsigned long long)S.IncrementalProbes,
            S.IncrementalProbes
                ? R.ShrinkMs.Median / double(S.IncrementalProbes)
                : 0.0,
            (unsigned long long)S.CnfSolves);
      }
      Rows.push(rowFor(Corpus[I].first, Modes[M], R));
      ByMode[M].push_back(std::move(R));
    }
  }

  // Speedup block: median shrink-phase wall-clock, scratch over
  // propagate, per program. The acceptance gate is the fsm_256 entry
  // (>= 10x). A program with no SAT-backed probe has a shrink phase of
  // prechecks only, so its ratio is noise and is reported as n/a.
  obs::Json Speedup = obs::Json::array();
  std::printf("\n  %-8s %24s\n", "size", "propagate_vs_scratch");
  bool GateOk = false;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const ModeResult &Scratch = ByMode[0][I];
    const ModeResult &Prop = ByMode[1][I];
    if (!Scratch.First.Ok || !Prop.First.Ok)
      continue;
    obs::Json E = obs::Json::object();
    E.set("size", Corpus[I].first);
    E.set("scratch_shrink_ms", Scratch.ShrinkMs.Median);
    E.set("propagate_shrink_ms", Prop.ShrinkMs.Median);
    if (Scratch.First.Stats.IncrementalProbes == 0) {
      E.set("propagate_vs_scratch", obs::Json());
      std::printf("  %-8s %24s\n", Corpus[I].first.c_str(), "n/a");
    } else {
      double PropX = Prop.ShrinkMs.Median > 0.0
                         ? Scratch.ShrinkMs.Median / Prop.ShrinkMs.Median
                         : 0.0;
      E.set("propagate_vs_scratch", PropX);
      std::printf("  %-8s %23.2fx\n", Corpus[I].first.c_str(), PropX);
      if (Corpus[I].first == "fsm_256" && PropX >= 10.0)
        GateOk = true;
    }
    Speedup.push(std::move(E));
  }
  std::printf("\n  fsm_256 propagate-vs-scratch gate (>= 10x): %s\n",
              GateOk ? "PASS" : "FAIL");

  obs::Json Doc = obs::Json::object();
  Doc.set("schema", "reticle-bench-v1");
  Doc.set("figure", "place");
  Doc.set("title",
          "Placement shrink-search solve time by attempt strategy");
  Doc.set("reps", static_cast<uint64_t>(Reps));
  Doc.set("series", std::move(Rows));
  Doc.set("speedup", std::move(Speedup));
  std::string Path = "BENCH_place.json";
  if (Status S = obs::writeJsonFile(Doc, Path); !S) {
    std::fprintf(stderr, "warning: %s\n", S.error().c_str());
    return GateOk ? 0 : 1;
  }
  std::printf("\nwrote %s\n", Path.c_str());
  return GateOk ? 0 : 1;
}
