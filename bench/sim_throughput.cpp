//===- bench/sim_throughput.cpp - Simulation engine throughput -----------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// Measures the cycles/second of the four simulation engines — the
/// tree-walking reference interpreter (Section 6.2) and gate-level
/// netlist simulator, plus the compiled-bytecode VM lowered from each
/// source (vm-ir, vm-netlist) — on `fsm_43` (bit-level control) and
/// `tensordot_18` (DSP datapath), bare, with a `sim::VcdWriter` attached
/// to the engine, and with a `sim::ToggleCoverageSink` attached, so the
/// cost of full per-cycle observability is a tracked number rather than
/// folklore.
///
/// Each row runs the engine over the same 256-cycle input trace again and
/// again until at least 200 ms have passed, and reports total cycles over
/// total time. Each VM row in an observed mode carries `ratio_vs_bare`
/// (its wall time per cycle over the same engine's bare run) next to the
/// observability targets: a waveform at most 2x bare, toggle coverage at
/// most 3x. Each VM row also carries `speedup_vs_tree`, its throughput
/// relative to the same-mode tree engine it replaces (programs are
/// compiled once, outside the timed region). The VM engines additionally
/// run a `profiled` mode — the per-op execution-profile variant of
/// sim::execute — whose row carries `overhead_vs_none` and the profile's
/// attribution fraction. Writes `BENCH_sim.json` ("reticle-bench-v1")
/// next to the binary; the targets are reported, not enforced.
///
//===----------------------------------------------------------------------===//

#include "codegen/NetlistSim.h"
#include "core/Compiler.h"
#include "frontend/Benchmarks.h"
#include "interp/Interp.h"
#include "interp/Wave.h"
#include "obs/Coverage.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "sim/Compile.h"
#include "sim/Vm.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

using namespace reticle;
using interp::Trace;
using interp::Value;

namespace {

/// Cycles per engine call, and the minimum measured time per row.
constexpr size_t Cycles = 256;
constexpr double RowFloorMs = 200.0;

/// The observability targets: observed wall time per cycle over bare.
constexpr double VcdTarget = 2.0;
constexpr double CovTarget = 3.0;

/// A deterministic input trace: a linear-congruential walk over the i8
/// range, so every run measures identical work.
Trace makeTrace(const ir::Function &Fn) {
  Trace T;
  uint64_t State = 0x2545F4914F6CDD1DULL;
  auto Next = [&State] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((State >> 33) % 256) - 128;
  };
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      if (P.Ty.isBool()) {
        S[P.Name] = Value::makeBool(Next() & 1);
        continue;
      }
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(Next());
      S[P.Name] = Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  return T;
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// One benchmark program, compiled once outside every timed region:
/// compile-once is the VM's contract, so the timer measures execution
/// alone (the tree engines have no equivalent setup to skip).
struct Subject {
  std::string Name;
  ir::Function Fn;
  core::CompileResult Compiled;
  sim::Program Ir;
  sim::Program Netlist;
  Trace In;
};

Result<Subject> prepare(std::string Name, ir::Function Fn) {
  Result<core::CompileResult> Compiled = core::compile(Fn, {});
  if (!Compiled)
    return fail<Subject>(Name + ": compile failed: " + Compiled.error());
  Result<sim::Program> Ir = sim::compile(Fn);
  if (!Ir)
    return fail<Subject>(Name + ": vm-ir lowering failed: " + Ir.error());
  Result<sim::Program> Net = sim::compile(Compiled.value().Verilog);
  if (!Net)
    return fail<Subject>(Name + ": vm-netlist lowering failed: " +
                         Net.error());
  Trace In = makeTrace(Fn);
  return Subject{std::move(Name), std::move(Fn), Compiled.take(), Ir.take(),
                 Net.take(),      std::move(In)};
}

} // namespace

int main() {
  std::vector<Subject> Subjects;
  for (auto &[Name, Fn] :
       std::vector<std::pair<std::string, ir::Function>>{
           {"fsm_43", frontend::makeFsm(43)},
           {"tensordot_18", frontend::makeTensorDot(18)}}) {
    Result<Subject> S = prepare(Name, std::move(Fn));
    if (!S) {
      std::fprintf(stderr, "%s\n", S.error().c_str());
      return 1;
    }
    Subjects.push_back(S.take());
  }

  std::printf("Simulation throughput: %zu-cycle calls, >= %.0f ms per row\n\n",
              Cycles, RowFloorMs);
  std::printf("  %-13s %-10s %-9s %10s %14s %22s\n", "program", "engine",
              "mode", "ms", "cycles/sec", "vs tree / vs bare");

  obs::Json Rows = obs::Json::array();
  bool AllOk = true;
  // Per program: tree-engine ms/cycle per mode (for speedup_vs_tree) and
  // VM bare ms/cycle (for ratio_vs_bare and overhead_vs_none).
  std::map<std::string, double> TreeMsPerCycle;
  std::map<std::string, double> BareMsPerCycle;

  auto Measure = [&](const Subject &S, const std::string &Eng,
                     const std::string &Mode) {
    const bool Vm = Eng == "vm-ir" || Eng == "vm-netlist";
    const sim::Program &Prog = Eng == "vm-ir" ? S.Ir : S.Netlist;
    double Ms = 0.0;
    size_t Calls = 0;
    uint64_t ToggleBins = 0;
    uint64_t VcdBytes = 0;
    sim::VmProfile Prof;
    Result<Trace> Out = fail<Trace>("not run");
    while (Ms < RowFloorMs) {
      obs::Coverage Cov;
      sim::ToggleCoverageSink Toggles(Cov);
      sim::WaveSink *Sink = Mode == "coverage" ? &Toggles : nullptr;
      sim::VcdWriter Vcd(S.Name);
      if (Mode == "wave")
        Sink = &Vcd;
      // Drop the previous call's trace before the timer starts; tearing
      // it down is not part of the engine's work.
      Out = fail<Trace>("not run");
      auto Start = std::chrono::steady_clock::now();
      Out = Eng == "interp"
                ? interp::interpret(S.Fn, S.In, Sink, obs::defaultContext())
            : Eng == "netlist"
                ? codegen::simulate(S.Compiled.Verilog, S.In, Sink,
                                    obs::defaultContext())
            : Mode == "profiled"
                ? sim::execute(Prog, S.In, Prof, Sink, obs::defaultContext())
                : sim::execute(Prog, S.In, Sink, obs::defaultContext());
      Ms += msSince(Start);
      ++Calls;
      if (!Out)
        break;
      VcdBytes = Vcd.text().size();
      if (Mode == "coverage") {
        obs::CoverageSnapshot Snap = Cov.snapshot();
        auto It = Snap.find("sim.toggle");
        ToggleBins = It == Snap.end() ? 0 : It->second.size();
      }
    }

    obs::Json Row = obs::Json::object();
    Row.set("program", S.Name);
    Row.set("engine", Eng);
    Row.set("mode", Mode);
    Row.set("ok", Out.ok());
    if (!Out) {
      Row.set("error", Out.error());
      std::printf("  %-13s %-10s %-9s FAILED: %s\n", S.Name.c_str(),
                  Eng.c_str(), Mode.c_str(), Out.error().c_str());
      AllOk = false;
      Rows.push(std::move(Row));
      return;
    }
    const uint64_t TotalCycles = Calls * Cycles;
    const double MsPerCycle = Ms / static_cast<double>(TotalCycles);
    const double PerSec = 1000.0 / MsPerCycle;
    Row.set("cycles", TotalCycles);
    Row.set("calls", static_cast<uint64_t>(Calls));
    Row.set("ms", Ms);
    Row.set("cycles_per_sec", PerSec);
    if (Mode == "wave")
      Row.set("vcd_bytes", VcdBytes);
    if (Mode == "coverage")
      Row.set("toggle_bins", ToggleBins);

    const std::string Key = S.Name + "/" + Mode;
    char Note[64] = "-";
    if (!Vm) {
      TreeMsPerCycle[Key] = MsPerCycle;
    } else if (Mode == "profiled") {
      double Overhead = MsPerCycle / BareMsPerCycle[S.Name + "/" + Eng];
      Row.set("overhead_vs_none", Overhead);
      Row.set("ops", Prof.TotalOps);
      Row.set("ops_attributed", Prof.AttributedOps);
      Row.set("attributed_frac",
              Prof.TotalOps == 0 ? 0.0
                                 : static_cast<double>(Prof.AttributedOps) /
                                       static_cast<double>(Prof.TotalOps));
      std::snprintf(Note, sizeof(Note), "%.2fx overhead", Overhead);
    } else {
      double Speedup = TreeMsPerCycle[Key] / MsPerCycle;
      Row.set("speedup_vs_tree", Speedup);
      if (Mode == "none") {
        BareMsPerCycle[S.Name + "/" + Eng] = MsPerCycle;
        std::snprintf(Note, sizeof(Note), "%.1fx", Speedup);
      } else {
        double Ratio = MsPerCycle / BareMsPerCycle[S.Name + "/" + Eng];
        double Target = Mode == "wave" ? VcdTarget : CovTarget;
        Row.set("ratio_vs_bare", Ratio);
        Row.set("target_vs_bare", Target);
        std::snprintf(Note, sizeof(Note), "%.1fx / %.2fx (<= %.0fx)",
                      Speedup, Ratio, Target);
      }
    }
    std::printf("  %-13s %-10s %-9s %10.1f %14.0f %22s\n", S.Name.c_str(),
                Eng.c_str(), Mode.c_str(), Ms, PerSec, Note);
    Rows.push(std::move(Row));
  };

  for (const Subject &S : Subjects) {
    for (const char *Engine : {"interp", "netlist", "vm-ir", "vm-netlist"})
      for (const char *Mode : {"none", "wave", "coverage"})
        Measure(S, Engine, Mode);
    // Only the VM engines have a profiled executor; the tree engines have
    // no bytecode sites to attribute.
    for (const char *Engine : {"vm-ir", "vm-netlist"})
      Measure(S, Engine, "profiled");
  }

  obs::Json Doc = obs::Json::object();
  Doc.set("schema", "reticle-bench-v1");
  Doc.set("figure", "sim");
  Doc.set("title", "Simulation engine throughput (fsm_43, tensordot_18)");
  obs::Json Targets = obs::Json::object();
  Targets.set("note", "observed VM wall time per cycle over bare; "
                      "reported, not enforced");
  Targets.set("vcd_vs_bare", VcdTarget);
  Targets.set("cov_vs_bare", CovTarget);
  Doc.set("targets", std::move(Targets));
  Doc.set("series", std::move(Rows));
  if (Status S = obs::writeJsonFile(Doc, "BENCH_sim.json"); !S) {
    std::fprintf(stderr, "warning: %s\n", S.error().c_str());
    return AllOk ? 0 : 1;
  }
  std::printf("\nwrote BENCH_sim.json\n");
  return AllOk ? 0 : 1;
}
