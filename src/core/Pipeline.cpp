//===- core/Pipeline.cpp - The pass pipeline ------------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Transforms.h"
#include "sat/Solver.h"

#include <chrono>
#include <cstdio>

using namespace reticle;
using namespace reticle::core;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// parse: text -> verified ir::Function. Only present when compiling from
/// source; compile(Fn) trusts its caller's function (isel re-verifies).
class ParsePass : public Pass {
public:
  const char *name() const override { return "parse"; }
  const char *snapshotFormat() const override { return "ir"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Fn ? State.Fn->str() : std::string();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::ParseMs;
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<ir::Function> Fn = ir::parseFunction(State.Source);
    if (!Fn)
      return Status::failure(Fn.error());
    // Selection verifies the function again and records its coverage.
    if (Status S = ir::verifyWithoutCoverage(Fn.value(), Session.context());
        !S)
      return S;
    State.Fn = Fn.take();
    return Status::success();
  }
};

/// opt: the Section 8.2 front-end passes (fold, dce, vectorize).
class OptPass : public Pass {
public:
  const char *name() const override { return "opt"; }
  bool enabled(const CompileOptions &Options) const override {
    return Options.Optimize;
  }
  const char *snapshotFormat() const override { return "ir"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Fn ? State.Fn->str() : std::string();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::OptMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("folded", State.Result.Opt.Folded);
    Sp.arg("dead", State.Result.Opt.Dead);
    Sp.arg("vectorized", State.Result.Opt.Vectorized);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    const obs::Context &Ctx = Session.context();
    OptStats &S = State.Result.Opt;
    S.Folded = opt::constantFold(*State.Fn, Ctx);
    S.Dead = opt::deadCodeElim(*State.Fn, Ctx);
    S.Vectorized = opt::vectorize(*State.Fn, 4, Ctx);
    return Status::success();
  }
};

/// isel: tree-covering instruction selection (Section 5.1).
class IselPass : public Pass {
public:
  const char *name() const override { return "isel"; }
  const char *spanName() const override { return "select"; }
  const char *snapshotFormat() const override { return "asm"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Asm.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::SelectMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("trees", State.Result.SelectStats.NumTrees);
    Sp.arg("asm_ops", State.Result.SelectStats.NumAsmOps);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<rasm::AsmProgram> Asm =
        isel::select(*State.Fn, *State.Target, &State.Result.SelectStats,
                     Session.context());
    if (!Asm)
      return Status::failure(Asm.error());
    State.Result.Asm = Asm.take();
    return Status::success();
  }
};

/// cascade: layout optimization (Section 5.2). Chains are bounded by the
/// DSP column height of the target device.
class CascadePass : public Pass {
public:
  const char *name() const override { return "cascade"; }
  bool enabled(const CompileOptions &Options) const override {
    return Options.Cascade;
  }
  const char *snapshotFormat() const override { return "asm"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Asm.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::CascadeMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("chains", State.Result.CascadeStats.Chains);
    Sp.arg("rewritten", State.Result.CascadeStats.Rewritten);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    unsigned MaxChain =
        std::max(2u, Options.Dev.maxHeight(ir::Resource::Dsp));
    return isel::cascadePass(State.Result.Asm, *State.Target, MaxChain,
                             &State.Result.CascadeStats, Session.context());
  }
};

/// place: SAT-based instruction placement (Section 5.3).
class PlacePass : public Pass {
public:
  const char *name() const override { return "place"; }
  const char *snapshotFormat() const override { return "asm"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Placed.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::PlaceMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("solves", State.Result.PlaceStats.Solves);
    Sp.arg("conflicts", State.Result.PlaceStats.Conflicts);
    Sp.arg("max_col", State.Result.PlaceStats.MaxColumn);
    Sp.arg("max_row", State.Result.PlaceStats.MaxRow);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    place::PlacementOptions PlaceOptions;
    PlaceOptions.Shrink = Options.Shrink;
    PlaceOptions.Mode = Options.SatMode;
    sat::ProofWriter Proof;
    if (Options.SatProof)
      PlaceOptions.Proof = &Proof;
    Result<rasm::AsmProgram> Placed =
        place::place(State.Result.Asm, Options.Dev, PlaceOptions,
                     &State.Result.PlaceStats, Session.context());
    if (Options.SatProof)
      State.Result.SatProof = Proof.take();
    if (!Placed)
      return Status::failure(Placed.error());
    State.Result.Placed = Placed.take();
    // Defense in depth: independently re-verify the solver's answer against
    // the constraint system of Section 5.3 before trusting it downstream.
    if (Status S = place::checkPlacement(State.Result.Asm,
                                         State.Result.Placed, Options.Dev);
        !S)
      return Status::failure("internal error: invalid placement accepted: " +
                             S.error());
    return Status::success();
  }
};

/// codegen: structural Verilog with layout annotations (Section 5.4).
class CodegenPass : public Pass {
public:
  const char *name() const override { return "codegen"; }
  const char *snapshotFormat() const override { return "verilog"; }
  std::string snapshotText(const CompileState &State) const override {
    return State.Result.Verilog.str();
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::CodegenMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("luts", State.Result.Util.Luts);
    Sp.arg("dsps", State.Result.Util.Dsps);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<verilog::Module> Mod =
        codegen::generate(State.Result.Placed, *State.Target, Options.Dev,
                          &State.Result.Util, Session.context());
    if (!Mod)
      return Status::failure(Mod.error());
    State.Result.Verilog = Mod.take();
    return Status::success();
  }
};

/// timing: static timing analysis of the placed result.
class TimingPass : public Pass {
public:
  const char *name() const override { return "timing"; }
  bool enabled(const CompileOptions &Options) const override {
    return Options.Timing;
  }
  double StageTimings::*timingSlot() const override {
    return &StageTimings::TimingMs;
  }
  void spanArgs(obs::Span &Sp, const CompileState &State) const override {
    Sp.arg("critical_path_ns", State.Result.Timing.CriticalPathNs);
  }
  Status run(CompileState &State, CompileSession &Session,
             const CompileOptions &Options) override {
    Result<timing::TimingReport> Report =
        timing::analyzeAsm(State.Result.Placed, *State.Target, Options.Dev,
                           timing::DelayModel(), Session.context());
    if (!Report)
      return Status::failure(Report.error());
    State.Result.Timing = Report.take();
    return Status::success();
  }
};

} // namespace

Status Pipeline::run(CompileState &State, CompileSession &Session,
                     const CompileOptions &Options) const {
  // The most recent pass with program text of its own; its snapshotText
  // over the current state is what `--print-before` shows for the next
  // stage (later passes never mutate the fields earlier snapshots read).
  const Pass *LastWithText = nullptr;
  for (const std::unique_ptr<Pass> &P : Passes) {
    for (const Hook &H : Before)
      H(*P, State, Session);
    if (!Options.PrintBefore.empty() && Options.PrintBefore == P->name()) {
      std::string Text = LastWithText ? LastWithText->snapshotText(State)
                         : State.Fn  ? State.Fn->str()
                                     : State.Source;
      std::fprintf(stderr, "; %s: before %s\n%s", State.Name.c_str(),
                   P->name(), Text.c_str());
      if (Text.empty() || Text.back() != '\n')
        std::fputc('\n', stderr);
    }
    auto Start = std::chrono::steady_clock::now();
    Status Outcome = Status::success();
    bool Ran = P->enabled(Options) && !Options.isPassDisabled(P->name());
    if (Ran) {
      obs::Span Sp(Session.context(), P->spanName());
      Outcome = P->run(State, Session, Options);
      if (Outcome)
        P->spanArgs(Sp, State);
    }
    // One clock read feeds both the StageTimings slot and the latency
    // histograms, so the two agree and the recording is not charged to
    // the pass it records.
    double Ms = msSince(Start);
    if (double StageTimings::*Slot = P->timingSlot())
      State.Result.Times.*Slot = Ms;
    if (Ran) {
      // Latency distributions: every pass execution lands one sample in
      // the aggregate pass histogram and one in its per-pass histogram,
      // so batch compiles expose real p50/p90/p99 per stage.
      const obs::Context &Ctx = Session.context();
      Ctx.histogram("pipeline.pass_ms").record(Ms);
      Ctx.histogram(std::string("pipeline.pass_ms.") + P->name()).record(Ms);
    }
    if (Outcome)
      if (const char *Format = P->snapshotFormat()) {
        // The options' external sink (the legacy hook) wins over the
        // session's own capture.
        obs::SnapshotSink *Sink =
            Options.Snapshots ? Options.Snapshots
            : Session.capturingSnapshots() ? &Session.snapshots()
                                           : nullptr;
        if (Sink)
          Sink->add(P->name(), Format, P->snapshotText(State));
      }
    if (!Outcome)
      Session.diagnose(P->name(), Outcome.error());
    if (P->snapshotFormat())
      LastWithText = P.get();
    for (const Hook &H : After)
      H(*P, State, Session);
    if (!Outcome)
      return Outcome;
  }
  return Status::success();
}

Pipeline reticle::core::buildPipeline(const CompileOptions &Options,
                                      bool FromSource) {
  Pipeline P;
  if (FromSource)
    P.add(std::make_unique<ParsePass>());
  // When compiling an already-built function, the opt pass appears only
  // on request, keeping the legacy four-stage snapshot list for
  // compile(Fn) unchanged. From source it is always listed (though it
  // only runs under Options.Optimize), so dump directories are stable.
  if (FromSource || Options.Optimize)
    P.add(std::make_unique<OptPass>());
  P.add(std::make_unique<IselPass>());
  P.add(std::make_unique<CascadePass>());
  P.add(std::make_unique<PlacePass>());
  P.add(std::make_unique<CodegenPass>());
  P.add(std::make_unique<TimingPass>());
  return P;
}

const std::vector<std::string> &reticle::core::pipelinePassNames() {
  static const std::vector<std::string> Names = {
      "parse", "opt", "isel", "cascade", "place", "codegen", "timing"};
  return Names;
}

bool reticle::core::isPassDisableable(std::string_view Name) {
  return Name == "opt" || Name == "cascade" || Name == "timing";
}
