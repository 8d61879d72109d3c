//===- perfbench/bench.cpp - The Reticle end-to-end benchmark -------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One closed-loop benchmark over the public entry points of the compiler
/// and simulator layers:
///
///   reticle_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Every workload runs three kinds of operation, interleaved so that each
/// receives a fixed share of the measured time:
///
///  - compile: core::compileSource of one program at jobs=1;
///  - batch:   core::compileBatch of the workload's corpus at jobs=nproc;
///  - sim:     sim::execute of a compiled program on vm-ir or vm-netlist,
///             bare, with a sim::VcdWriter, or with a
///             sim::ToggleCoverageSink.
///
/// The workloads differ in corpus and in the shares (see Workloads below),
/// so each stresses different layers while every run reports every
/// end-to-end metric. Programs are fixed generator outputs; the seed
/// drives the simulation input traces and the order of compiles.
///
/// Every operation is checked, and a failed check counts in `failed`:
/// each placement passes place::checkPlacement, each compile reproduces
/// the reference result's quality figures, each VM trace equals the
/// reference interpreter's on the same inputs, and each observed run
/// leaves non-empty sink output.
///
/// With --trace 1 the same loop runs with the benchmark's own span log
/// (Spans.h) around each call into a layer, compiles go through
/// core::buildPipeline with before/after hooks so every pass is timed
/// from outside, and the per-layer metrics are printed instead.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "core/Batch.h"
#include "core/Compiler.h"
#include "core/Pipeline.h"
#include "core/Session.h"
#include "frontend/Benchmarks.h"
#include "interp/Interp.h"
#include "interp/Wave.h"
#include "obs/Coverage.h"
#include "place/Place.h"
#include "sim/Compile.h"
#include "sim/Vm.h"
#include "tdl/Ultrascale.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace reticle;
using namespace perfbench;
using interp::Trace;
using interp::Value;

namespace {

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  ir::Function Fn;
  std::string Source;
  core::CompileOptions Options;
};

/// The union of every workload's programs: the paper's Figure 13 sizes
/// (probe-free), the largest Figure 13a/4 points and fsm_43 (real SAT
/// shrink probes), and tensordot_9 with the front-end optimizations on.
std::vector<Program> makeCorpus() {
  std::vector<std::pair<std::string, ir::Function>> Fns;
  for (unsigned K : {3u, 9u, 18u, 36u})
    Fns.emplace_back("tensordot_" + std::to_string(K),
                     frontend::makeTensorDot(K));
  for (unsigned S : {3u, 5u, 7u, 9u, 43u})
    Fns.emplace_back("fsm_" + std::to_string(S), frontend::makeFsm(S));
  for (unsigned N : {64u, 128u, 256u, 512u})
    Fns.emplace_back("tensoradd_" + std::to_string(N),
                     frontend::makeTensorAdd(N));
  Fns.emplace_back("dsp_add_1024", frontend::makeDspAdd(1024));
  Fns.emplace_back("tensordot_9_O", frontend::makeTensorDot(9));

  std::vector<Program> Corpus;
  for (auto &[Name, Fn] : Fns) {
    Program P{Name, std::move(Fn), {}, {}};
    P.Source = P.Fn.str();
    P.Options.Optimize = Name.size() > 2 && Name.ends_with("_O");
    Corpus.push_back(std::move(P));
  }
  return Corpus;
}

/// Quality of result of one compile; deterministic for a program.
struct Qor {
  double FmaxMhz = 0.0;
  unsigned Luts = 0;
  unsigned Dsps = 0;
  uint64_t BboxSlots = 0;
  unsigned SatProbes = 0;
  unsigned PrecheckProbes = 0;
  uint64_t Conflicts = 0;
  unsigned UsefulProbes = 0; ///< shrink probes that found a smaller layout

  bool operator==(const Qor &) const = default;
};

Qor qorOf(const core::CompileResult &R) {
  Qor Q;
  Q.FmaxMhz = R.Timing.FmaxMhz;
  Q.Luts = R.Util.Luts;
  Q.Dsps = R.Util.Dsps;
  Q.BboxSlots = static_cast<uint64_t>(R.PlaceStats.MaxColumn + 1) *
                (R.PlaceStats.MaxRow + 1);
  Q.SatProbes = static_cast<unsigned>(R.PlaceStats.IncrementalProbes);
  Q.PrecheckProbes = static_cast<unsigned>(R.PlaceStats.PrecheckProbes);
  Q.Conflicts = R.PlaceStats.Conflicts;
  for (const place::ShrinkProbe &P : R.PlaceStats.Timeline)
    if (P.ProbeAxis != place::ShrinkProbe::Axis::Initial &&
        P.Result == place::ShrinkProbe::Outcome::Sat)
      ++Q.UsefulProbes;
  return Q;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum PhaseKind { PhaseCompile = 0, PhaseBatch = 1, PhaseSim = 2 };

struct Workload {
  const char *Name;
  /// Programs compiled one at a time and, all but the -O one, as a batch.
  std::vector<std::string> Compiled;
  /// Share of measured time per phase (compile, batch, sim).
  double Share[3];
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> W = {
      {"compile-sat",
       {"fsm_43", "tensoradd_512", "dsp_add_1024"},
       {0.60, 0.25, 0.15}},
      {"compile-many",
       {"tensordot_3", "tensordot_9", "tensordot_18", "tensordot_36",
        "fsm_3", "fsm_5", "fsm_7", "fsm_9", "tensoradd_64", "tensoradd_128",
        "tensoradd_256", "tensordot_9_O"},
       {0.45, 0.45, 0.10}},
      {"sim-observe",
       {"fsm_43", "tensordot_18"},
       {0.10, 0.10, 0.80}},
  };
  return W;
}

/// The programs every workload simulates: control (bit-level) and a DSP
/// datapath.
const char *const SimPrograms[] = {"fsm_43", "tensordot_18"};

//===----------------------------------------------------------------------===//
// Simulation cells
//===----------------------------------------------------------------------===//

enum Engine { VmIr = 0, VmNetlist = 1 };
enum Mode { Bare = 0, Vcd = 1, Cov = 2 };
const char *const EngineNames[] = {"vm-ir", "vm-netlist"};
const char *const ModeNames[] = {"bare", "vcd", "cov"};

/// Cycles per execute call, sized so one call takes about 10 ms on the
/// reference machine: long enough to time, short enough that a run takes
/// many samples of every cell. [program][engine][mode].
const size_t CellCycles[2][2][3] = {
    {{5000, 400, 250}, {250, 60, 25}}, // fsm_43
    {{1200, 80, 16}, {750, 30, 8}},    // tensordot_18
};

struct Cell {
  size_t SimIdx = 0; ///< index into State::Sims
  Engine Eng = VmIr;
  Mode M = Bare;
  size_t Cycles = 0;
  Trace Input; ///< the first Cycles steps of the program's inputs
  std::vector<double> NsPerCycle; ///< one sample per execute call
  uint64_t SinkBytes = 0;         ///< VCD size / toggle bins of a call

  std::string key(const std::string &Program) const {
    return std::string(EngineNames[Eng]) + "." + Program;
  }
};

struct SimProgram {
  size_t Prog = 0; ///< index into the corpus
  sim::Program Ir;
  sim::Program Netlist;
  Trace Input;  ///< longest input any cell of this program needs
  Trace Oracle; ///< interp::interpret over Input
};

Trace makeTrace(const ir::Function &Fn, size_t Cycles, uint64_t Seed) {
  Trace T;
  std::mt19937_64 Rng(Seed);
  for (size_t C = 0; C < Cycles; ++C) {
    interp::Step &S = T.appendStep();
    for (const ir::Port &P : Fn.inputs()) {
      if (P.Ty.isBool()) {
        S[P.Name] = Value::makeBool(Rng() & 1);
        continue;
      }
      std::vector<int64_t> Lanes;
      for (unsigned L = 0; L < P.Ty.lanes(); ++L)
        Lanes.push_back(static_cast<int64_t>(Rng() % 256) - 128);
      S[P.Name] = Value::fromLanes(P.Ty, std::move(Lanes));
    }
  }
  return T;
}

Trace prefix(const Trace &T, size_t Cycles) {
  Trace Out;
  for (size_t C = 0; C < Cycles && C < T.size(); ++C)
    Out.push(T.step(C));
  return Out;
}

/// Whether \p Out agrees with \p Oracle on every output port of \p Fn
/// for every cycle of \p Out. Ports compare through their flattened bits:
/// the netlist engines report a vector port as one packed integer.
bool matchesOracle(const ir::Function &Fn, const Trace &Out,
                   const Trace &Oracle) {
  if (Out.size() > Oracle.size())
    return false;
  for (size_t C = 0; C < Out.size(); ++C)
    for (const ir::Port &P : Fn.outputs()) {
      const Value *A = Out.get(C, P.Name);
      const Value *B = Oracle.get(C, P.Name);
      if (!A || !B || A->toBits() != B->toBits())
        return false;
    }
  return true;
}

uint64_t seedFor(uint64_t Seed, const std::string &Name) {
  uint64_t H = 1469598103934665603ULL ^ Seed;
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  return H;
}

//===----------------------------------------------------------------------===//
// Statistics helpers
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Sum = 0.0;
  for (double X : V)
    Sum += std::log(X);
  return std::exp(Sum / static_cast<double>(V.size()));
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

/// Everything set-up builds; rebuilt from scratch by every set-up pass.
struct State {
  std::vector<Program> Corpus;
  std::map<std::string, size_t> ByName;
  std::vector<SimProgram> Sims;
  std::vector<Cell> Cells;
  double SimCompileIrMs = 0.0;
  double SimCompileNetlistMs = 0.0;
};

/// Per-layer figures gathered from the traced compiles of one program.
struct PassSamples {
  std::map<std::string, std::vector<double>> ByPass;
  std::vector<double> Untimed;   ///< compile wall minus the passes
  std::vector<double> SatMs;     ///< PlacementStats::SatMs
  std::vector<double> OutsideMs; ///< place pass minus SatMs
};

class Bench {
public:
  Bench(const Args &A, const Workload &W)
      : A(A), W(W), Log(A.Trace),
        Jobs(std::max(1u, std::thread::hardware_concurrency())) {}

  int run();

private:
  const Args &A;
  const Workload &W;
  SpanLog Log;
  unsigned Jobs;

  State St;
  /// One compile of every program the run compiles or simulates, made
  /// before set-up: later compiles must reproduce it, and the simulated
  /// programs are lowered from its Verilog.
  std::map<size_t, core::CompileResult> Reference;
  std::vector<size_t> CompileSet; ///< corpus indices, seed-shuffled
  std::vector<core::BatchInput> BatchSet;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  std::vector<double> SetupS;
  std::map<size_t, std::vector<double>> CompileMs;   ///< untraced
  std::map<size_t, std::vector<double>> TracedMs;    ///< traced pipeline
  std::map<size_t, PassSamples> Passes;
  std::vector<double> BatchMsN, BatchMs1;
  std::vector<double> ItemSumN, ItemSum1;
  /// Attribution cross-check: summed |hook-timed pass - StageTimings
  /// slot| over summed slot time, allowed up to AttribTolerance.
  double AttribErrMs = 0.0, AttribBaseMs = 0.0;
  static constexpr double AttribTolerance = 0.02;

  void gate(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }

  void compileReferences();
  State setup();
  void verifySetup();
  void checkCompile(size_t Prog, const Result<core::CompileResult> &R,
                    const char *Where);

  void compileUnit(size_t Prog, bool TracedFirst);
  double compileUntraced(size_t Prog);
  double compileTraced(size_t Prog);
  void batchUnit(unsigned UnitJobs);
  void simUnit(Cell &C);

  void loop();
  void report();
};

void Bench::compileReferences() {
  St.Corpus = makeCorpus();
  for (size_t I = 0; I < St.Corpus.size(); ++I)
    St.ByName[St.Corpus[I].Name] = I;
  std::vector<std::string> Touched = W.Compiled;
  Touched.insert(Touched.end(), std::begin(SimPrograms),
                 std::end(SimPrograms));
  for (const std::string &N : Touched) {
    size_t I = St.ByName.at(N);
    if (Reference.count(I))
      continue;
    const Program &P = St.Corpus[I];
    core::CompileSession Session;
    Result<core::CompileResult> R =
        core::compileSource(P.Source, P.Name, P.Options, Session);
    gate(R.ok(), "reference compile of " + N + (R ? "" : ": " + R.error()));
    if (R)
      Reference.emplace(I, R.take());
  }
}

State Bench::setup() {
  Scope Sp(Log, "setup");
  State S;
  S.Corpus = makeCorpus();
  for (size_t I = 0; I < S.Corpus.size(); ++I)
    S.ByName[S.Corpus[I].Name] = I;

  // Lower each simulated program once per engine, draw its inputs, and
  // warm the VM on a short prefix of them.
  for (size_t SimIdx = 0; SimIdx < std::size(SimPrograms); ++SimIdx) {
    SimProgram SP;
    SP.Prog = S.ByName.at(SimPrograms[SimIdx]);
    const Program &P = S.Corpus[SP.Prog];
    auto T0 = Clock::now();
    Result<sim::Program> Ir = fail<sim::Program>("not run");
    {
      Scope Lower(Log, "sim.compile", "vm-ir." + P.Name);
      Ir = sim::compile(P.Fn);
    }
    auto T1 = Clock::now();
    Result<sim::Program> Net = fail<sim::Program>("no reference compile");
    if (auto It = Reference.find(SP.Prog); It != Reference.end()) {
      Scope Lower(Log, "sim.compile", "vm-netlist." + P.Name);
      Net = sim::compile(It->second.Verilog);
    }
    S.SimCompileIrMs += msBetween(T0, T1);
    S.SimCompileNetlistMs += msBetween(T1, Clock::now());
    if (!Ir || !Net)
      continue;
    SP.Ir = Ir.take();
    SP.Netlist = Net.take();
    size_t MaxCycles = 0;
    for (int E = 0; E < 2; ++E)
      for (int M = 0; M < 3; ++M) {
        Cell C;
        C.SimIdx = S.Sims.size();
        C.Eng = static_cast<Engine>(E);
        C.M = static_cast<Mode>(M);
        C.Cycles = CellCycles[SimIdx][E][M];
        MaxCycles = std::max(MaxCycles, C.Cycles);
        S.Cells.push_back(std::move(C));
      }
    SP.Input = makeTrace(P.Fn, MaxCycles, seedFor(A.Seed, P.Name));
    for (Cell &C : S.Cells)
      if (C.SimIdx == S.Sims.size())
        C.Input = prefix(SP.Input, C.Cycles);
    Trace Warm = prefix(SP.Input, 64);
    (void)sim::execute(SP.Ir, Warm);
    (void)sim::execute(SP.Netlist, Warm);
    S.Sims.push_back(std::move(SP));
  }
  return S;
}

void Bench::checkCompile(size_t Prog, const Result<core::CompileResult> &R,
                         const char *Where) {
  const Program &P = St.Corpus[Prog];
  std::string What = std::string(Where) + " " + P.Name;
  if (!R) {
    gate(false, What + ": " + R.error());
    return;
  }
  Status Ok = place::checkPlacement(R.value().Asm, R.value().Placed,
                                    P.Options.Dev);
  gate(Ok.ok(), What + ": placement check: " + (Ok ? "" : Ok.error()));
  // Programs outside the run's reference set (the traced run's sweep
  // over the rest of the corpus) have nothing to reproduce.
  if (auto Ref = Reference.find(Prog); Ref != Reference.end())
    gate(qorOf(R.value()) == qorOf(Ref->second),
         What + ": result differs from the reference compile");
}

void Bench::verifySetup() {
  gate(St.Sims.size() == std::size(SimPrograms), "sim-program lowering");
  for (const auto &[Prog, R] : Reference) {
    const Program &P = St.Corpus[Prog];
    Status Ok = place::checkPlacement(R.Asm, R.Placed, P.Options.Dev);
    gate(Ok.ok(), "reference placement check " + P.Name);
    // Every compiled program, simulated from its emitted Verilog and from
    // its IR, must agree with the reference interpreter on seeded inputs.
    Trace In = makeTrace(P.Fn, 32, seedFor(A.Seed, P.Name + "/gate"));
    Result<Trace> Expected = interp::interpret(P.Fn, In);
    Result<sim::Program> Ir = sim::compile(P.Fn);
    Result<sim::Program> Net = sim::compile(R.Verilog);
    for (const Result<sim::Program> *Lowered : {&Ir, &Net}) {
      Result<Trace> Out =
          *Lowered ? sim::execute(Lowered->value(), In)
                   : fail<Trace>(Lowered->error());
      gate(Expected && Out && Out.value().size() == In.size() &&
               matchesOracle(P.Fn, Out.value(), Expected.value()),
           "simulation check " + P.Name + " on " +
               (Lowered == &Ir ? "vm-ir" : "vm-netlist"));
    }
  }
  for (SimProgram &SP : St.Sims) {
    Result<Trace> Oracle =
        interp::interpret(St.Corpus[SP.Prog].Fn, SP.Input);
    gate(Oracle.ok(), "interpreter oracle " + St.Corpus[SP.Prog].Name);
    if (Oracle)
      SP.Oracle = Oracle.take();
  }
}

double Bench::compileUntraced(size_t Prog) {
  const Program &P = St.Corpus[Prog];
  core::CompileSession Session;
  auto T0 = Clock::now();
  Result<core::CompileResult> R =
      core::compileSource(P.Source, P.Name, P.Options, Session);
  double Ms = msBetween(T0, Clock::now());
  checkCompile(Prog, R, "compile");
  return Ms;
}

double Bench::compileTraced(size_t Prog) {
  const Program &P = St.Corpus[Prog];
  core::CompileSession Session;
  core::CompileState State;
  State.Name = P.Name;
  State.Source = P.Source;
  State.Target = &tdl::ultrascale();

  int Top = Log.open("compile", P.Name);
  core::Pipeline Pipe = core::buildPipeline(P.Options, /*FromSource=*/true);
  int PassSpan = -1;
  Pipe.beforeEach([&](const core::Pass &Ps, const core::CompileState &,
                      core::CompileSession &) {
    PassSpan = Log.open(Ps.name(), P.Name);
  });
  Pipe.afterEach([&](const core::Pass &Ps, const core::CompileState &S,
                     core::CompileSession &) {
    Log.close(PassSpan);
    // Attribution cross-check: the hook-timed span must agree with the
    // pipeline's own StageTimings slot for the same pass.
    if (double core::StageTimings::*Slot = Ps.timingSlot()) {
      AttribErrMs +=
          std::fabs(Log.spans()[PassSpan].ms() - S.Result.Times.*Slot);
      AttribBaseMs += S.Result.Times.*Slot;
    }
  });
  Status Ok = Pipe.run(State, Session, P.Options);
  Log.close(Top);

  const Span &Sp = Log.spans()[Top];
  Result<core::CompileResult> R =
      Ok ? Result<core::CompileResult>(std::move(State.Result))
         : fail<core::CompileResult>(Ok.error());
  checkCompile(Prog, R, "traced compile");
  if (R) {
    PassSamples &PS = Passes[Prog];
    for (int Child : Log.children(Top))
      PS.ByPass[Log.spans()[Child].Name].push_back(Log.spans()[Child].ms());
    PS.Untimed.push_back(Sp.selfMs());
    double SatMs = R.value().PlaceStats.SatMs;
    PS.SatMs.push_back(SatMs);
    PS.OutsideMs.push_back(PS.ByPass["place"].back() - SatMs);
  }
  return Sp.ms();
}

void Bench::compileUnit(size_t Prog, bool TracedFirst) {
  if (!A.Trace) {
    CompileMs[Prog].push_back(compileUntraced(Prog));
    return;
  }
  // The traced run also times untraced compiles, alternating which goes
  // first, so it can report its own overhead.
  if (TracedFirst)
    TracedMs[Prog].push_back(compileTraced(Prog));
  CompileMs[Prog].push_back(compileUntraced(Prog));
  if (!TracedFirst)
    TracedMs[Prog].push_back(compileTraced(Prog));
}

void Bench::batchUnit(unsigned UnitJobs) {
  core::BatchOptions BO;
  BO.Jobs = UnitJobs;
  Scope Sp(Log, "batch", UnitJobs == 1 ? "jobs1" : "jobsN");
  auto T0 = Clock::now();
  std::vector<core::BatchItem> Items = core::compileBatch(BatchSet, BO);
  double Ms = msBetween(T0, Clock::now());
  double ItemSum = 0.0;
  for (size_t I = 0; I < Items.size(); ++I) {
    // compileBatch engages every item's outcome before it returns.
    const Result<core::CompileResult> &R = *Items[I].Outcome;
    if (R)
      ItemSum += R.value().Times.TotalMs;
    checkCompile(St.ByName.at(BatchSet[I].Name), R, "batch item");
  }
  (UnitJobs == 1 ? BatchMs1 : BatchMsN).push_back(Ms);
  (UnitJobs == 1 ? ItemSum1 : ItemSumN).push_back(ItemSum);
}

void Bench::simUnit(Cell &C) {
  SimProgram &SP = St.Sims[C.SimIdx];
  const std::string &Name = St.Corpus[SP.Prog].Name;
  const sim::Program &P = C.Eng == VmIr ? SP.Ir : SP.Netlist;
  const Trace &In = C.Input;
  std::string What = std::string(ModeNames[C.M]) + " " + C.key(Name);

  obs::Coverage Bins;
  sim::ToggleCoverageSink Toggles(Bins);
  sim::VcdWriter Writer;
  sim::WaveSink *Sink = C.M == Vcd   ? static_cast<sim::WaveSink *>(&Writer)
                        : C.M == Cov ? static_cast<sim::WaveSink *>(&Toggles)
                                     : nullptr;
  Result<Trace> Out = fail<Trace>("not run");
  double Ms = 0.0;
  {
    Scope Sp(Log, "sim.execute",
             std::string(ModeNames[C.M]) + "." + C.key(Name));
    auto T0 = Clock::now();
    Out = sim::execute(P, In, Sink);
    Ms = msBetween(T0, Clock::now());
  }
  gate(Out && Out.value().size() == In.size() &&
           matchesOracle(St.Corpus[SP.Prog].Fn, Out.value(), SP.Oracle),
       What + ": trace differs from the interpreter");
  if (C.M == Vcd) {
    C.SinkBytes = Writer.text().size();
    gate(C.SinkBytes > 0, What + ": empty VCD");
  } else if (C.M == Cov) {
    obs::CoverageSnapshot Snap = Bins.snapshot();
    auto It = Snap.find("sim.toggle");
    C.SinkBytes = It == Snap.end() ? 0 : It->second.size();
    gate(C.SinkBytes > 0, What + ": no toggle bins");
  }
  C.NsPerCycle.push_back(1e6 * Ms / static_cast<double>(C.Cycles));
}

void Bench::loop() {
  const size_t MinSamples = 3;
  const double HardStopS = std::max(A.Seconds * 3.0, A.Seconds + 60.0);
  size_t NextCompile = 0, NextCell = 0, Round = 0;
  double Spent[3] = {0.0, 0.0, 0.0};
  auto Start = Clock::now();

  auto Wanting = [&](int Phase) {
    switch (Phase) {
    case PhaseCompile:
      for (size_t I : CompileSet)
        if (CompileMs[I].size() < MinSamples)
          return true;
      return false;
    case PhaseBatch:
      return BatchMsN.size() < MinSamples ||
             (A.Trace && BatchMs1.size() < MinSamples);
    default:
      for (const Cell &C : St.Cells)
        if (C.NsPerCycle.size() < MinSamples)
          return true;
      return false;
    }
  };

  for (;;) {
    double Elapsed = msBetween(Start, Clock::now()) / 1000.0;
    if (Elapsed >= HardStopS)
      break;
    bool Overtime = Elapsed >= A.Seconds;
    // The phase furthest behind its share goes next; past the deadline
    // only phases still short of their minimum sample count run.
    int Next = -1;
    double Best = 0.0;
    for (int Ph = 0; Ph < 3; ++Ph) {
      if (W.Share[Ph] <= 0.0 || (Overtime && !Wanting(Ph)))
        continue;
      double Lag = Spent[Ph] / W.Share[Ph];
      if (Next < 0 || Lag < Best) {
        Next = Ph;
        Best = Lag;
      }
    }
    if (Next < 0)
      break;
    auto T0 = Clock::now();
    switch (Next) {
    case PhaseCompile:
      compileUnit(CompileSet[NextCompile], Round % 2 == 0);
      if (++NextCompile == CompileSet.size()) {
        NextCompile = 0;
        ++Round;
      }
      break;
    case PhaseBatch:
      batchUnit(Jobs);
      if (A.Trace)
        batchUnit(1);
      break;
    default:
      simUnit(St.Cells[NextCell]);
      NextCell = (NextCell + 1) % St.Cells.size();
      break;
    }
    Spent[Next] += msBetween(T0, Clock::now());
  }
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::string Moves; ///< end-to-end metric it should move (traced only)
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

void Bench::report() {
  std::vector<Metric> M;
  auto Sum = [&](auto Get) {
    double Total = 0.0;
    for (size_t I : CompileSet)
      Total += Get(I);
    return Total;
  };

  // Simulation: per-cell medians, then geomeans over program x engine.
  std::map<std::string, double> CellNs[3];
  uint64_t VcdBytes = 0, ToggleBins = 0;
  for (const Cell &C : St.Cells) {
    std::string Key = C.key(St.Corpus[St.Sims[C.SimIdx].Prog].Name);
    CellNs[C.M][Key] = median(C.NsPerCycle);
    if (C.M == Vcd)
      VcdBytes += C.SinkBytes;
    else if (C.M == Cov)
      ToggleBins += C.SinkBytes;
  }
  auto Rate = [&](int Mode) {
    std::vector<double> Rates;
    for (const auto &[Key, Ns] : CellNs[Mode])
      Rates.push_back(1e9 / Ns);
    return geomean(Rates);
  };

  std::vector<double> CompileMedians;
  for (size_t I : CompileSet)
    CompileMedians.push_back(median(CompileMs[I]));
  double CompileGmean = geomean(CompileMedians);

  if (!A.Trace) {
    std::vector<double> Fmax;
    double Luts = 0, Dsps = 0, Bbox = 0;
    for (size_t I : CompileSet) {
      Qor Q = qorOf(Reference.at(I));
      Fmax.push_back(Q.FmaxMhz);
      Luts += Q.Luts;
      Dsps += Q.Dsps;
      Bbox += static_cast<double>(Q.BboxSlots);
    }
    M.push_back({"setup_s", median(SetupS), "s", ""});
    M.push_back({"compile_ms_gmean", CompileGmean, "ms", ""});
    M.push_back({"batch_programs_per_s",
                 1000.0 * static_cast<double>(BatchSet.size()) /
                     median(BatchMsN),
                 "1/s", ""});
    M.push_back({"sim_cycles_per_s", Rate(Bare), "cycles/s", ""});
    M.push_back({"sim_vcd_cycles_per_s", Rate(Vcd), "cycles/s", ""});
    M.push_back({"sim_cov_cycles_per_s", Rate(Cov), "cycles/s", ""});
    M.push_back({"fmax_mhz_gmean", geomean(Fmax), "MHz", ""});
    M.push_back({"luts", Luts, "count", ""});
    M.push_back({"dsps", Dsps, "count", ""});
    M.push_back({"placed_bbox_slots", Bbox, "count", ""});
    M.push_back({"peak_rss_mb", peakRssMb(), "MB", ""});
  } else {
    const char *Compile = "compile_ms_gmean";
    auto PassMs = [&](const char *Pass) {
      return Sum([&](size_t I) {
        auto &V = Passes[I].ByPass;
        auto It = V.find(Pass);
        return It == V.end() ? 0.0 : median(It->second);
      });
    };
    for (const char *Pass :
         {"parse", "opt", "isel", "cascade", "place", "codegen", "timing"})
      M.push_back({std::string(Pass) + ".ms", PassMs(Pass), "ms", Compile});
    M.push_back({"pipeline.untimed_ms",
                 Sum([&](size_t I) { return median(Passes[I].Untimed); }),
                 "ms", Compile});
    M.push_back({"place.sat_ms",
                 Sum([&](size_t I) { return median(Passes[I].SatMs); }), "ms",
                 Compile});
    M.push_back({"place.outside_sat_ms",
                 Sum([&](size_t I) { return median(Passes[I].OutsideMs); }),
                 "ms", Compile});
    Qor Total;
    unsigned ShrinkProbes = 0;
    for (size_t I : CompileSet) {
      const core::CompileResult &R = Reference.at(I);
      Qor Q = qorOf(R);
      Total.SatProbes += Q.SatProbes;
      Total.PrecheckProbes += Q.PrecheckProbes;
      Total.Conflicts += Q.Conflicts;
      Total.UsefulProbes += Q.UsefulProbes;
      ShrinkProbes += R.PlaceStats.ShrinkIterations;
    }
    M.push_back({"place.sat_probes", double(Total.SatProbes), "count",
                 Compile});
    M.push_back({"place.precheck_probes", double(Total.PrecheckProbes),
                 "count", Compile});
    M.push_back({"place.conflicts", double(Total.Conflicts), "count",
                 Compile});
    M.push_back({"place.probe_sat_frac",
                 ShrinkProbes ? double(Total.UsefulProbes) / ShrinkProbes
                              : 0.0,
                 "ratio", Compile});
    for (const Program &P : St.Corpus) {
      size_t I = St.ByName.at(P.Name);
      M.push_back({"compile." + P.Name + ".ms", median(TracedMs[I]), "ms",
                   Compile});
    }
    std::vector<double> TracedMedians;
    for (size_t I : CompileSet)
      TracedMedians.push_back(median(TracedMs[I]));
    M.push_back({"trace.overhead_ms", geomean(TracedMedians) - CompileGmean,
                 "ms", Compile});
    M.push_back({"trace.attribution_err_frac",
                 AttribBaseMs > 0.0 ? AttribErrMs / AttribBaseMs : 0.0,
                 "ratio", Compile});

    const char *Batch = "batch_programs_per_s";
    double Ms1 = median(BatchMs1), MsN = median(BatchMsN);
    M.push_back({"batch.wall_ms.jobs1", Ms1, "ms", Batch});
    M.push_back({"batch.wall_ms.jobsN", MsN, "ms", Batch});
    M.push_back({"batch.scaling", MsN > 0.0 ? Ms1 / MsN : 0.0, "ratio",
                 Batch});
    double Item1 = median(ItemSum1), ItemN = median(ItemSumN);
    M.push_back({"batch.item_inflation", Item1 > 0.0 ? ItemN / Item1 : 0.0,
                 "ratio", Batch});

    M.push_back({"sim.compile_ir_ms", St.SimCompileIrMs, "ms", "setup_s"});
    M.push_back({"sim.compile_netlist_ms", St.SimCompileNetlistMs, "ms",
                 "setup_s"});
    for (const auto &[Key, Ns] : CellNs[Bare])
      M.push_back({"vm.ns_per_cycle." + Key, Ns, "ns", "sim_cycles_per_s"});
    for (const auto &[Key, Ns] : CellNs[Vcd])
      M.push_back({"sink.vcd.ns_per_cycle." + Key, Ns - CellNs[Bare][Key],
                   "ns", "sim_vcd_cycles_per_s"});
    for (const auto &[Key, Ns] : CellNs[Cov])
      M.push_back({"sink.cov.ns_per_cycle." + Key, Ns - CellNs[Bare][Key],
                   "ns", "sim_cov_cycles_per_s"});
    M.push_back({"sink.vcd_bytes", double(VcdBytes), "bytes",
                 "sim_vcd_cycles_per_s"});
    M.push_back({"sink.toggle_bins", double(ToggleBins), "count",
                 "sim_cov_cycles_per_s"});
  }

  // Human-readable table, then the machine-readable last line.
  std::printf("workload %s, seed %llu, %u jobs, %s\n", W.Name,
              static_cast<unsigned long long>(A.Seed), Jobs,
              A.Trace ? "traced" : "untraced");
  for (const Metric &X : M) {
    if (A.Trace)
      std::printf("  %-44s %16.6g %-8s -> %s on %s\n", X.Name.c_str(),
                  X.Value, X.Unit, X.Moves.c_str(), W.Name);
    else
      std::printf("  %-44s %16.6g %s\n", X.Name.c_str(), X.Value, X.Unit);
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (const std::string &F : Failures)
    std::printf("  FAILED: %s\n", F.c_str());

  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I) {
    if (I)
      Json += ", ";
    Json += jsonString(M[I].Name) + ": {\"value\": " +
            jsonNumber(M[I].Value) + ", \"unit\": " +
            jsonString(M[I].Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

int Bench::run() {
  compileReferences();
  // Set up several times and keep the last state; set-up time is the
  // median, so a single slow pass does not decide it.
  const int SetupReps = 5;
  for (int Rep = 0; Failed == 0 && Rep < SetupReps; ++Rep) {
    auto T0 = Clock::now();
    St = setup();
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  verifySetup();
  for (const std::string &N : W.Compiled) {
    size_t I = St.ByName.at(N);
    CompileSet.push_back(I);
    if (!St.Corpus[I].Options.Optimize)
      BatchSet.push_back({St.Corpus[I].Name, St.Corpus[I].Source});
  }
  std::shuffle(CompileSet.begin(), CompileSet.end(),
               std::mt19937_64(seedFor(A.Seed, "order")));
  if (Failed != 0) {
    // Without a sound set-up there is nothing to measure against.
    for (const std::string &F : Failures)
      std::fprintf(stderr, "FAILED: %s\n", F.c_str());
    return 1;
  }
  loop();
  if (A.Trace) {
    // Per-program rows cover the whole corpus: programs outside this
    // workload's compile set are traced once here.
    for (size_t I = 0; I < St.Corpus.size(); ++I)
      if (TracedMs[I].empty())
        TracedMs[I].push_back(compileTraced(I));
    gate(AttribErrMs <= AttribTolerance * AttribBaseMs,
         "hook-timed passes disagree with StageTimings");
  }
  report();
  return 0;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: reticle_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               Msg);
  for (const Workload &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else
      return usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      return usage(("bad value for " + Flag).c_str());
  }
  for (const Workload &W : workloads())
    if (A.Workload == W.Name) {
      Bench B(A, W);
      return B.run();
    }
  return usage(("unknown workload '" + A.Workload + "'").c_str());
}
