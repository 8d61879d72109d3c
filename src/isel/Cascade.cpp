//===- isel/Cascade.cpp - DSP cascade layout optimization ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "isel/Cascade.h"

#include "ir/DefUse.h"
#include "obs/Context.h"

#include <algorithm>
#include <optional>

using namespace reticle;
using namespace reticle::isel;

namespace {

/// The accumulator ("c") operand position of the muladd family.
constexpr size_t AccumIndex = 2;

bool isCascadeHead(const std::string &OpName) {
  return OpName == "muladd" || OpName == "muladdreg";
}

/// True when the instruction may join a cascade chain: a DSP muladd-family
/// operation whose placement is still entirely unconstrained.
bool isChainable(const rasm::AsmInstr &I) {
  if (I.isWire() || !isCascadeHead(I.opName()))
    return false;
  return I.loc().Prim == ir::Resource::Dsp && I.loc().X.isWild() &&
         I.loc().Y.isWild();
}

} // namespace

Status reticle::isel::cascadePass(rasm::AsmProgram &Prog,
                                  const tdl::Target &Target,
                                  unsigned MaxChain, CascadeStats *Stats,
                                  const obs::Context &Ctx) {
  if (MaxChain < 2)
    return Status::success();
  obs::Span Sp(Ctx, "isel.cascade");
  Sp.arg("max_chain", static_cast<uint64_t>(MaxChain));
  std::vector<rasm::AsmInstr> &Body = Prog.body();

  // Where is each value defined, and how often is it used? The rewrite
  // below changes op names and locations only — destinations, arguments,
  // and types are untouched — so the cached analysis stays valid through
  // the whole pass (and for the placement stages after it).
  const ir::DefUse &DU = Prog.defUse(Ctx);

  // next(i): the chainable instruction consuming i's result in its
  // accumulator port, when that result has no other use.
  auto Next = [&](size_t I) -> std::optional<size_t> {
    ir::ValueId Dst = DU.dstIdOf(I);
    if (DU.useCount(Dst) != 1)
      return std::nullopt;
    for (uint32_t J : DU.usersOf(Dst)) {
      if (J == I || !isChainable(Body[J]))
        continue;
      if (Body[J].args().size() > AccumIndex &&
          DU.argIdsOf(J)[AccumIndex] == Dst)
        return static_cast<size_t>(J);
    }
    return std::nullopt;
  };

  // A chain head is a chainable instruction not fed (in its accumulator)
  // by another chainable instruction with single use.
  auto HasChainablePredecessor = [&](size_t I) {
    ir::ValueId Accum = DU.argIdsOf(I)[AccumIndex];
    if (Accum == ir::InvalidValueId)
      return false;
    uint32_t Def = DU.defIndexOf(Accum);
    if (Def == ir::DefUse::NoDef || !isChainable(Body[Def]))
      return false;
    return DU.useCount(Accum) == 1;
  };

  unsigned FreshVar = 0;
  unsigned ChainsHere = 0, RewrittenHere = 0;
  // The rewrite's counters and isel.pattern coverage, folded in once below.
  obs::CoverageBins Patterns;
  for (size_t Head = 0; Head < Body.size(); ++Head) {
    if (!isChainable(Body[Head]) || HasChainablePredecessor(Head))
      continue;
    // Collect the maximal chain from this head.
    std::vector<size_t> Chain = {Head};
    while (auto NextIndex = Next(Chain.back()))
      Chain.push_back(*NextIndex);
    if (Chain.size() < 2)
      continue;

    // Split overlong chains into placeable segments.
    for (size_t SegStart = 0; SegStart < Chain.size(); SegStart += MaxChain) {
      size_t SegLen = std::min<size_t>(MaxChain, Chain.size() - SegStart);
      if (SegLen < 2)
        break;
      // Verify that all cascade variants resolve on this target before
      // mutating anything.
      bool AllResolve = true;
      std::vector<std::string> NewNames(SegLen);
      for (size_t K = 0; K < SegLen; ++K) {
        const rasm::AsmInstr &I = Body[Chain[SegStart + K]];
        const char *Suffix =
            K == 0 ? "_co" : (K + 1 == SegLen ? "_ci" : "_cio");
        NewNames[K] = I.opName() + Suffix;
        std::vector<ir::Type> ArgTypes;
        bool TypesOk = true;
        for (ir::ValueId Arg : DU.argIdsOf(Chain[SegStart + K])) {
          if (Arg == ir::InvalidValueId) {
            TypesOk = false;
            break;
          }
          ArgTypes.push_back(DU.typeOfId(Arg));
        }
        if (!TypesOk ||
            !Target.resolve(NewNames[K], ir::Resource::Dsp, ArgTypes,
                            I.type())) {
          AllResolve = false;
          break;
        }
      }
      if (!AllResolve) {
        // The one silent way a chain stays on general routing; say so.
        if (Ctx.remarksEnabled())
          obs::Remark(Ctx, "cascade", "chain-skipped")
              .instr(Body[Chain[SegStart]].dst())
              .message("chain of " + std::to_string(SegLen) +
                       " not rewritten: target does not define every "
                       "cascade variant")
              .arg("length", static_cast<uint64_t>(SegLen));
        continue; // leave this segment on general routing
      }

      std::string XVar = "cx" + std::to_string(FreshVar);
      std::string YVar = "cy" + std::to_string(FreshVar);
      ++FreshVar;
      for (size_t K = 0; K < SegLen; ++K) {
        rasm::AsmInstr &I = Body[Chain[SegStart + K]];
        rasm::Loc NewLoc{ir::Resource::Dsp, rasm::Coord::var(XVar),
                         rasm::Coord::var(YVar, static_cast<int64_t>(K))};
        I = rasm::AsmInstr::makeOp(I.dst(), I.type(), NewNames[K], I.args(),
                                   std::move(NewLoc), I.attrs());
        // The cascade variant is a selection pattern becoming used; it
        // shares the isel.pattern coverage space with directly-selected
        // tiles (the Selector declared it).
        ++Patterns[NewNames[K]];
        if (Stats)
          ++Stats->Rewritten;
      }
      ++ChainsHere;
      RewrittenHere += static_cast<unsigned>(SegLen);
      if (Stats)
        ++Stats->Chains;
      if (Ctx.remarksEnabled())
        obs::Remark(Ctx, "cascade", "chain")
            .instr(Body[Chain[SegStart]].dst())
            .message("rewrote chain of " + std::to_string(SegLen) +
                     " to cascade variants, constrained to dsp(" + XVar +
                     ", " + YVar + ")..(" + XVar + ", " + YVar + "+" +
                     std::to_string(SegLen - 1) + ")")
            .arg("length", static_cast<uint64_t>(SegLen))
            .arg("max_chain", static_cast<uint64_t>(MaxChain))
            .arg("x_var", XVar)
            .arg("y_var", YVar);
    }
  }
  if (ChainsHere) {
    Ctx.counter("isel.cascade_rewritten") += RewrittenHere;
    Ctx.counter("isel.cascade_chains") += ChainsHere;
    Ctx.coverage().mergeSpace("isel.pattern", std::move(Patterns));
  }
  // Always leave one verdict, so "the rewrite never fired" is visible in
  // the remarks stream rather than inferred from silence.
  if (Ctx.remarksEnabled()) {
    unsigned Family = 0;
    for (const rasm::AsmInstr &I : Body)
      if (!I.isWire() &&
          isCascadeHead(I.opName().substr(0, I.opName().find('_'))))
        ++Family;
    obs::Remark(Ctx, "cascade", "summary")
        .message(ChainsHere
                     ? "rewrote " + std::to_string(ChainsHere) +
                           " chain(s), " + std::to_string(RewrittenHere) +
                           " instruction(s)"
                     : "no cascade-able chain found (" +
                           std::to_string(Family) +
                           " muladd-family instruction(s) present)")
        .arg("chains", ChainsHere)
        .arg("rewritten", RewrittenHere)
        .arg("muladd_family_ops", Family)
        .arg("max_chain", static_cast<uint64_t>(MaxChain));
  }
  return Status::success();
}
