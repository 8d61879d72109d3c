//===- place/Place.cpp - Instruction placement ----------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "place/Place.h"

#include "ir/DefUse.h"
#include "obs/Context.h"
#include "sat/Solver.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

using namespace reticle;
using namespace reticle::place;
using rasm::AsmInstr;
using rasm::AsmProgram;
using rasm::Coord;

namespace {

/// Initial cap on enumerated base positions per cluster; the first
/// solution grows it (x4, up to full enumeration) while the capped attempt
/// is unsatisfiable. The cap is part of what an attempt encodes: without
/// it the initial attempt's candidate lists, and with them its decision
/// and propagation counts and the `candidate cap` remark, would change.
constexpr size_t InitialCandidateCap = 128;

/// One placeable instruction. For its cluster's variable bases
/// (XBase, YBase) it occupies ((XRel ? XBase : 0) + DX,
/// (YRel ? YBase : 0) + DY): a relative coordinate adds its offset to the
/// base, a literal one is its offset.
struct Member {
  size_t BodyIndex = 0;
  int64_t DX = 0;
  int64_t DY = 0;
  bool XRel = false;
  bool YRel = false;
};

/// A concrete base assignment for a cluster's variables (0 on an axis the
/// cluster has no variable for): one placement candidate.
struct Base {
  unsigned X = 0;
  unsigned Y = 0;
};

/// A rigid group of instructions related by shared coordinate variables,
/// with the bound-independent parts of its candidate enumeration.
struct Cluster {
  ir::Resource Prim = ir::Resource::Lut;
  std::optional<std::string> XVar;
  std::optional<std::string> YVar;
  std::vector<Member> Members;
  /// The x bases at which every member lands in a column of Prim,
  /// ascending ({0} or nothing without an x variable). An attempt's
  /// bounds only cut this list.
  std::vector<unsigned> BaseColumns;

  device::Slot slotOf(const Member &M, Base B) const {
    return {static_cast<unsigned>((M.XRel ? B.X : 0) + M.DX),
            static_cast<unsigned>((M.YRel ? B.Y : 0) + M.DY)};
  }
};

/// Per-kind area bounds used by the shrinking passes (exclusive).
struct Bounds {
  unsigned MaxColumn = 0; ///< columns with index <= MaxColumn usable
  unsigned MaxRow = 0;    ///< rows with index <= MaxRow usable
};

/// Sequential at-most-one encoding over \p Lits. When \p Selector is
/// given, every emitted clause is guarded by it (clause ∨ ¬selector), so
/// assuming the selector true enables the constraint and dropping the
/// assumption switches the whole group off — the mechanism behind
/// UNSAT-core extraction over named constraint groups.
void addAtMostOne(sat::Solver &S, const std::vector<sat::Lit> &Lits,
                  std::optional<sat::Lit> Selector = std::nullopt) {
  auto Add = [&](std::vector<sat::Lit> Clause) {
    if (Selector)
      Clause.push_back(~*Selector);
    S.addClause(std::move(Clause));
  };
  if (Lits.size() <= 1)
    return;
  if (Lits.size() == 2) {
    Add({~Lits[0], ~Lits[1]});
    return;
  }
  std::vector<sat::Var> Aux(Lits.size() - 1);
  for (sat::Var &V : Aux)
    V = S.newVar();
  Add({~Lits[0], sat::Lit(Aux[0])});
  for (size_t I = 1; I + 1 < Lits.size(); ++I) {
    Add({~Lits[I], sat::Lit(Aux[I])});
    Add({~sat::Lit(Aux[I - 1]), sat::Lit(Aux[I])});
    Add({~Lits[I], ~sat::Lit(Aux[I - 1])});
  }
  Add({~Lits.back(), ~sat::Lit(Aux.back())});
}

class Placer {
public:
  Placer(const AsmProgram &Prog, const device::Device &Dev,
         const PlacementOptions &Options, PlacementStats *Stats,
         const obs::Context &Ctx)
      : Prog(Prog), Dev(Dev), Options(Options), Stats(Stats), Ctx(Ctx) {}

  Result<AsmProgram> run();

private:
  Status buildClusters();
  /// Fills the candidate tables for one attempt: every cluster's first
  /// \p Cap valid bases under \p B, in (x, y) order. Returns the index of
  /// the first cluster left without a candidate, or SIZE_MAX.
  size_t enumerate(const Bounds &B, size_t Cap);
  /// Whether no member of \p C at \p Cand lands on a pinned slot.
  bool isFree(const Cluster &C, Base Cand) const;
  /// Builds the slot -> users table of the current candidates under \p B.
  void buildUsers(const Bounds &B);
  /// Per-attempt search effort, reported back to the caller so shrink
  /// probes can attribute their cost (and distinguish a proved UNSAT from
  /// an exhausted budget).
  struct SolveInfo {
    uint64_t Conflicts = 0;
    uint64_t Decisions = 0;
    bool BudgetExhausted = false;
    /// True when the attempt got past the prechecks and was answered by
    /// propagation or the CNF (false: settled by an arithmetic precheck or
    /// an empty candidate range).
    bool SatBacked = false;
  };
  /// One placement attempt under the given bounds. On success fills
  /// \p Assignment with the chosen base per non-fixed cluster. In
  /// Propagate mode the candidate tables go through propagate() first
  /// and the CNF is built only when it fails. A nonzero \p ConflictBudget
  /// bounds the CNF search (shrinking attempts give up rather than fight
  /// pigeonhole-hard instances). With \p Explain set,
  /// an unsatisfiable attempt is additionally explained: the encoding is
  /// re-emitted with one selector literal per constraint group, the
  /// failed-assumption core is extracted and minimized, and each surviving
  /// group is reported as a named sat:core remark and a
  /// PlacementStats::Core entry.
  enum class Attempt { Sat, Unsat, Error };
  Attempt solveOnce(const Bounds &B, size_t Cap, std::vector<Base> &Assignment,
                    std::string &Err, uint64_t ConflictBudget = 0,
                    bool Explain = false, SolveInfo *Info = nullptr);
  /// Records one named core constraint (stats + sat:core remark).
  void noteCore(const std::string &Kind, const std::string &Instr,
                const std::string &Detail);
  /// Selector-tagged re-encoding and core extraction for a proved-UNSAT
  /// attempt, from the attempt's candidate and slot tables.
  void explainUnsat();

  /// Arithmetic infeasibility precheck shared by every solve path: demand
  /// vs capacity within the bounds, and cascade-chain segment capacity.
  /// Returns true (and tags \p Sp) when \p B provably cannot fit.
  bool capacityInfeasible(const Bounds &B, bool Explain, obs::Span &Sp);

  /// First-fit unit propagation over the attempt's candidate tables.
  /// Replays what the CDCL solver does on their CNF while it meets no
  /// conflict: every single-candidate cluster is a root unit, then each
  /// decision sets the lowest unassigned variable true — the lowest live
  /// candidate of the first unplaced cluster — and unit propagation kills
  /// every candidate sharing a slot with a chosen one and chooses any
  /// cluster left with one live candidate. Returns false exactly where
  /// the solver would hit a conflict (a cluster's domain empties, or a
  /// chosen candidate names one slot twice); otherwise fills
  /// \p Assignment with the solver's model, and \p Decisions and
  /// \p Propagations with the counts the solver would have reported.
  bool propagate(std::vector<Base> &Assignment, uint64_t &Decisions,
                 uint64_t &Propagations) const;

  /// Accumulates one fresh solver's effort into PlacementStats.
  void accumulate(const sat::Solver::Statistics &D, bool BudgetHit);

  /// The placed slots of \p Assignment, cluster by cluster in member
  /// order.
  std::vector<device::Slot> slotsOf(const std::vector<Base> &Assignment) const;

  const AsmProgram &Prog;
  const device::Device &Dev;
  PlacementOptions Options;
  PlacementStats *Stats;
  const obs::Context &Ctx;

  std::vector<Cluster> Clusters; // non-fixed
  /// Fully literal instructions: (body index, slot), sorted by slot, and
  /// their slots as a dense occupancy grid: slot (x, y) is
  /// PinnedAt[x * GridRows + y].
  std::vector<std::pair<size_t, device::Slot>> Pinned;
  std::vector<uint8_t> PinnedAt;
  unsigned GridRows = 0;

  /// Bound-independent inputs of the capacity precheck, per kind: the
  /// slots demanded, the clusters spanning two or more rows, and the
  /// shortest of those.
  struct KindDemand {
    size_t Need = 0;
    size_t Tall = 0;
    unsigned MinHeight = 1;
  };
  std::map<ir::Resource, KindDemand> Demand;

  /// One attempt's candidates, in the CNF's variable order: cluster I
  /// owns Cands[First[I] .. First[I + 1]), and ClusterOf maps a candidate
  /// back to its cluster.
  std::vector<Base> Cands;
  std::vector<uint32_t> First;
  std::vector<uint32_t> ClusterOf;
  /// Slot -> users CSR over the attempt's bounds, one entry per member
  /// slot exactly as the CNF's slot at-most-one lists them: slot (x, y)
  /// has key x * (MaxRow + 1) + y, its users are
  /// Users[UserStart[key] .. UserStart[key + 1]) in candidate order, and a
  /// candidate naming one slot twice appears twice.
  std::vector<uint32_t> UserStart;
  std::vector<uint32_t> Users;
  unsigned UserRows = 0;
};

Status Placer::buildClusters() {
  // Union-find over coordinate variables, interned to dense ids; wildcards
  // become fresh variables so every placeable instruction lands in some
  // cluster.
  ir::NameInterner Vars;
  std::vector<ir::ValueId> Parent;
  auto Ensure = [&](const std::string &Name) {
    ir::ValueId Id = Vars.intern(Name);
    if (Id == Parent.size())
      Parent.push_back(Id);
    return Id;
  };
  auto Find = [&](ir::ValueId Id) {
    while (Parent[Id] != Id)
      Id = Parent[Id] = Parent[Parent[Id]];
    return Id;
  };
  auto Unite = [&](ir::ValueId A, ir::ValueId B) {
    Parent[Find(A)] = Find(B);
  };

  unsigned Fresh = 0;
  struct NormInstr {
    size_t BodyIndex;
    ir::Resource Prim;
    Coord X, Y;
  };
  std::vector<NormInstr> Instrs;
  for (size_t I = 0; I < Prog.body().size(); ++I) {
    const AsmInstr &A = Prog.body()[I];
    if (A.isWire())
      continue;
    Coord X = A.loc().X;
    Coord Y = A.loc().Y;
    if (X.isWild())
      X = Coord::var("$x" + std::to_string(Fresh++));
    if (Y.isWild())
      Y = Coord::var("$y" + std::to_string(Fresh++));
    ir::ValueId XId = X.isVar() ? Ensure(X.name()) : ir::InvalidValueId;
    ir::ValueId YId = Y.isVar() ? Ensure(Y.name()) : ir::InvalidValueId;
    if (XId != ir::InvalidValueId && YId != ir::InvalidValueId)
      Unite(XId, YId);
    Instrs.push_back({I, A.loc().Prim, X, Y});
  }

  // Group by representative id; fully literal instructions are pinned and
  // only occupy their slot. Cluster indices follow first-seen scan order.
  std::vector<size_t> GroupOf(Parent.size(), SIZE_MAX);
  std::vector<const NormInstr *> Pins;
  for (const NormInstr &N : Instrs) {
    if (!N.X.isVar() && !N.Y.isVar()) {
      Pins.push_back(&N);
      continue;
    }
    ir::ValueId Rep =
        Find(Vars.lookup(N.X.isVar() ? N.X.name() : N.Y.name()));
    if (GroupOf[Rep] == SIZE_MAX) {
      GroupOf[Rep] = Clusters.size();
      Clusters.emplace_back();
    }
    Cluster &C = Clusters[GroupOf[Rep]];
    if (C.Members.empty())
      C.Prim = N.Prim;
    if (C.Prim != N.Prim)
      return Status::failure(
          "instructions sharing coordinate variables must use one "
          "primitive kind (cluster mixes lut and dsp)");
    // At most one distinct variable per axis within a cluster.
    if (N.X.isVar()) {
      if (!C.XVar)
        C.XVar = N.X.name();
      else if (*C.XVar != N.X.name())
        return Status::failure("cluster uses two distinct column variables "
                               "('" + *C.XVar + "' and '" + N.X.name() +
                               "'); this layout constraint is unsupported");
    }
    if (N.Y.isVar()) {
      if (!C.YVar)
        C.YVar = N.Y.name();
      else if (*C.YVar != N.Y.name())
        return Status::failure("cluster uses two distinct row variables "
                               "('" + *C.YVar + "' and '" + N.Y.name() +
                               "'); this layout constraint is unsupported");
    }
    C.Members.push_back(
        {N.BodyIndex, N.X.offset(), N.Y.offset(), N.X.isVar(), N.Y.isVar()});
  }

  // Pinned instructions occupy their slots up front, recorded in a dense
  // occupancy grid that candidate enumeration tests in O(1).
  GridRows = std::max(Dev.maxHeight(ir::Resource::Lut),
                      Dev.maxHeight(ir::Resource::Dsp));
  PinnedAt.assign(size_t(Dev.numColumns()) * GridRows, 0);
  for (const NormInstr *N : Pins) {
    int64_t X = N->X.offset(), Y = N->Y.offset();
    if (X < 0 || Y < 0 ||
        !Dev.isValidSlot(N->Prim, static_cast<unsigned>(X),
                         static_cast<unsigned>(Y)))
      return Status::failure(
          "pinned location " + Prog.body()[N->BodyIndex].loc().str() +
          " is not a valid " + ir::resourceName(N->Prim) +
          " slot on device '" + Dev.name() + "'");
    device::Slot S{static_cast<unsigned>(X), static_cast<unsigned>(Y)};
    uint8_t &At = PinnedAt[size_t(S.X) * GridRows + S.Y];
    if (At)
      return Status::failure("two instructions pinned to one slot");
    At = 1;
    Pinned.push_back({N->BodyIndex, S});
  }
  std::sort(Pinned.begin(), Pinned.end(),
            [](const auto &A, const auto &B) { return A.second < B.second; });

  for (Cluster &C : Clusters) {
    // Valid x bases, ignoring bounds.
    for (unsigned XB = 0; XB < (C.XVar ? Dev.numColumns() : 1u); ++XB) {
      bool Ok = true;
      for (const Member &M : C.Members) {
        int64_t X = (M.XRel ? XB : 0) + M.DX;
        Ok = X >= 0 && X < Dev.numColumns() &&
             Dev.columns()[X].Kind == C.Prim;
        if (!Ok)
          break;
      }
      if (Ok)
        C.BaseColumns.push_back(XB);
    }
    // Row span of the relative-row members.
    int64_t MinDy = 0, MaxDy = 0;
    bool First = true;
    for (const Member &M : C.Members) {
      if (!M.YRel)
        continue;
      MinDy = First ? M.DY : std::min(MinDy, M.DY);
      MaxDy = First ? M.DY : std::max(MaxDy, M.DY);
      First = false;
    }
    unsigned Height = First ? 1 : static_cast<unsigned>(MaxDy - MinDy + 1);
    // The capacity precheck's bound-independent demand.
    KindDemand &D = Demand[C.Prim];
    D.Need += C.Members.size();
    if (Height >= 2) {
      D.MinHeight = D.Tall == 0 ? Height : std::min(D.MinHeight, Height);
      ++D.Tall;
    }
  }
  return Status::success();
}

bool Placer::isFree(const Cluster &C, Base Cand) const {
  return std::none_of(C.Members.begin(), C.Members.end(),
                      [&](const Member &M) {
                        device::Slot S = C.slotOf(M, Cand);
                        return PinnedAt[size_t(S.X) * GridRows + S.Y] != 0;
                      });
}

size_t Placer::enumerate(const Bounds &B, size_t Cap) {
  Cands.clear();
  ClusterOf.clear();
  First.assign(1, 0);
  unsigned NumCols = std::min<unsigned>(Dev.numColumns(), B.MaxColumn + 1);
  for (size_t I = 0; I < Clusters.size(); ++I) {
    const Cluster &C = Clusters[I];
    int64_t MaxRows =
        C.YVar ? std::min<unsigned>(Dev.maxHeight(C.Prim), B.MaxRow + 1) : 1;
    size_t Left = Cap;
    for (unsigned XB : C.BaseColumns) {
      if (XB >= NumCols || Left == 0)
        break;
      // The y bases keeping every member inside its column and the
      // bounds form one interval [Lo, Hi).
      int64_t Lo = 0, Hi = MaxRows;
      for (const Member &M : C.Members) {
        int64_t X = (M.XRel ? XB : 0) + M.DX;
        if (X > B.MaxColumn) {
          Hi = 0;
          break;
        }
        int64_t Top =
            std::min<int64_t>(Dev.columns()[X].Height, int64_t(B.MaxRow) + 1);
        if (M.YRel) {
          Lo = std::max(Lo, -M.DY);
          Hi = std::min(Hi, Top - M.DY);
        } else if (M.DY < 0 || M.DY >= Top) {
          Hi = 0;
          break;
        }
      }
      for (int64_t YB = Lo; YB < Hi && Left; ++YB) {
        Base Cand{XB, static_cast<unsigned>(YB)};
        if (!Pinned.empty() && !isFree(C, Cand))
          continue;
        Cands.push_back(Cand);
        ClusterOf.push_back(static_cast<uint32_t>(I));
        --Left;
      }
    }
    First.push_back(static_cast<uint32_t>(Cands.size()));
    if (First[I + 1] == First[I])
      return I;
  }
  return SIZE_MAX;
}

void Placer::buildUsers(const Bounds &B) {
  UserRows = B.MaxRow + 1;
  UserStart.assign((size_t(B.MaxColumn) + 1) * UserRows + 1, 0);
  auto Key = [&](const device::Slot &S) {
    return size_t(S.X) * UserRows + S.Y;
  };
  for (size_t I = 0; I < Clusters.size(); ++I)
    for (uint32_t G = First[I]; G < First[I + 1]; ++G)
      for (const Member &M : Clusters[I].Members)
        ++UserStart[Key(Clusters[I].slotOf(M, Cands[G])) + 1];
  for (size_t K = 1; K < UserStart.size(); ++K)
    UserStart[K] += UserStart[K - 1];
  Users.resize(UserStart.back());
  std::vector<uint32_t> Fill(UserStart.begin(), UserStart.end() - 1);
  for (size_t I = 0; I < Clusters.size(); ++I)
    for (uint32_t G = First[I]; G < First[I + 1]; ++G)
      for (const Member &M : Clusters[I].Members)
        Users[Fill[Key(Clusters[I].slotOf(M, Cands[G]))]++] = G;
}

void Placer::noteCore(const std::string &Kind, const std::string &Instr,
                      const std::string &Detail) {
  if (Stats)
    Stats->Core.push_back({Kind, Instr, Detail});
  if (Ctx.remarksEnabled())
    obs::Remark(Ctx, "sat", "core")
        .instr(Instr)
        .message("unsat core: " + Detail)
        .arg("constraint", Kind)
        .arg("device", Dev.name());
}

bool Placer::capacityInfeasible(const Bounds &B, bool Explain,
                                obs::Span &Sp) {
  // Capacity precheck: SAT needs no help recognizing that N instructions
  // cannot fit N-1 slots, but resolution proofs of pigeonhole formulas are
  // exponential, so rule the case out arithmetically first. Tall clusters
  // (cascade chains) need that many *consecutive* rows in one column;
  // bound the number of placeable tall clusters per kind by the shortest
  // chain height. This is a sound relaxation that rejects the
  // pigeonhole-shaped shrink probes arithmetically.
  for (const auto &[Kind, D] : Demand) {
    size_t Capacity = 0;
    size_t SegmentCapacity = 0;
    unsigned NumCols = std::min<unsigned>(Dev.numColumns(), B.MaxColumn + 1);
    for (unsigned X = 0; X < NumCols; ++X) {
      const device::Column &Col = Dev.columns()[X];
      if (Col.Kind != Kind)
        continue;
      unsigned Rows = std::min<unsigned>(Col.Height, B.MaxRow + 1);
      Capacity += Rows;
      SegmentCapacity += Rows / D.MinHeight;
    }
    for (const auto &[BodyIndex, S] : Pinned)
      if (S.X <= B.MaxColumn && S.Y <= B.MaxRow &&
          Dev.columns()[S.X].Kind == Kind)
        --Capacity;
    if (D.Need > Capacity || D.Tall > SegmentCapacity) {
      Sp.arg("outcome", "precheck_unsat");
      if (Explain) {
        // Name the resource and a representative demanding instruction so
        // the explanation points back into the program.
        std::string Instr;
        for (const Cluster &C : Clusters)
          if (C.Prim == Kind) {
            Instr = Prog.body()[C.Members.front().BodyIndex].dst();
            break;
          }
        std::string Detail =
            D.Need > Capacity
                ? "demand for " + std::to_string(D.Need) + " " +
                      std::string(ir::resourceName(Kind)) +
                      " slot(s) exceeds the " + std::to_string(Capacity) +
                      " available within columns <= " +
                      std::to_string(B.MaxColumn) + ", rows <= " +
                      std::to_string(B.MaxRow) + " on device '" + Dev.name() +
                      "'"
                : std::to_string(D.Tall) + " cascade chain(s) of height >= " +
                      std::to_string(D.MinHeight) + " need " +
                      std::to_string(D.Tall) +
                      " consecutive-row segment(s) but only " +
                      std::to_string(SegmentCapacity) + " fit in " +
                      std::string(ir::resourceName(Kind)) +
                      " columns <= " + std::to_string(B.MaxColumn) +
                      ", rows <= " + std::to_string(B.MaxRow);
        noteCore("capacity", Instr, Detail);
      }
      return true;
    }
  }
  return false;
}

Placer::Attempt Placer::solveOnce(const Bounds &B, size_t Cap,
                                  std::vector<Base> &Assignment,
                                  std::string &Err, uint64_t ConflictBudget,
                                  bool Explain, SolveInfo *Info) {
  if (Info)
    *Info = {};
  obs::Span Sp(Ctx, "place.solve");
  Sp.arg("max_col", B.MaxColumn);
  Sp.arg("max_row", B.MaxRow);
  Sp.arg("cap", static_cast<uint64_t>(Cap));
  Sp.arg("clusters", static_cast<uint64_t>(Clusters.size()));
  if (capacityInfeasible(B, Explain, Sp))
    return Attempt::Unsat;

  auto EnumT0 = std::chrono::steady_clock::now();
  size_t Empty = enumerate(B, Cap);
  Sp.arg("candidates", static_cast<uint64_t>(Cands.size()));
  if (Stats) {
    Stats->EnumerateMs += std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - EnumT0)
                              .count();
    Stats->Candidates += Cands.size();
  }
  if (Empty != SIZE_MAX) {
    Sp.arg("outcome", "no_candidates");
    if (Explain) {
      const Cluster &C = Clusters[Empty];
      noteCore("range", Prog.body()[C.Members.front().BodyIndex].dst(),
               "cluster of " + std::to_string(C.Members.size()) + " " +
                   std::string(ir::resourceName(C.Prim)) +
                   " instruction(s) has no valid base position within "
                   "columns <= " +
                   std::to_string(B.MaxColumn) + ", rows <= " +
                   std::to_string(B.MaxRow) + " on device '" + Dev.name() +
                   "'");
    }
    return Attempt::Unsat; // no feasible base under these bounds
  }
  buildUsers(B);

  uint64_t Decisions = 0, Propagations = 0;
  if (Options.Mode == SatMode::Propagate &&
      propagate(Assignment, Decisions, Propagations)) {
    if (Stats) {
      ++Stats->Solves;
      Stats->Decisions += Decisions;
      Stats->Propagations += Propagations;
    }
    if (Info) {
      Info->Decisions = Decisions;
      Info->SatBacked = true;
    }
    Sp.arg("outcome", "sat");
    Sp.arg("via", "propagate");
    return Attempt::Sat;
  }

  sat::Solver S(Ctx);
  if (Options.Proof)
    S.setProof(Options.Proof);
  // One SAT variable per candidate, numbered cluster by cluster with each
  // cluster's at-most-one auxiliaries after its candidates.
  std::vector<sat::Var> VarOf(Cands.size());
  std::vector<sat::Lit> Lits;
  for (size_t I = 0; I < Clusters.size(); ++I) {
    Lits.clear();
    for (uint32_t G = First[I]; G < First[I + 1]; ++G) {
      VarOf[G] = S.newVar();
      Lits.push_back(sat::Lit(VarOf[G]));
    }
    // Exactly one candidate per cluster.
    if (!S.addClause(Lits))
      return Attempt::Unsat;
    addAtMostOne(S, Lits);
  }
  // Distinct slots: at most one user per slot. A multi-member cluster may
  // cover one slot with two members only through distinct candidates, so
  // pairwise AMO over candidate literals is exact.
  for (size_t K = 0; K + 1 < UserStart.size(); ++K) {
    Lits.clear();
    for (uint32_t U = UserStart[K]; U < UserStart[K + 1]; ++U)
      Lits.push_back(sat::Lit(VarOf[Users[U]]));
    addAtMostOne(S, Lits);
  }

  if (Stats) {
    ++Stats->Solves;
    ++Stats->CnfSolves;
    Stats->Vars = S.numVars();
    Stats->Clauses = static_cast<unsigned>(S.numClauses());
  }
  Sp.arg("vars", static_cast<uint64_t>(S.numVars()));
  sat::Outcome O = S.solve(ConflictBudget);
  accumulate(S.stats(), O == sat::Outcome::Unknown);
  if (Info) {
    const sat::Solver::SolveProfile &P = S.lastProfile();
    Info->Conflicts = P.Conflicts;
    Info->Decisions = P.Decisions;
    Info->BudgetExhausted = O == sat::Outcome::Unknown;
    Info->SatBacked = true;
  }
  if (O != sat::Outcome::Sat) {
    Sp.arg("outcome", O == sat::Outcome::Unsat ? "unsat" : "budget_exhausted");
    // Explain only a *proved* UNSAT: a budget-exhausted attempt has no
    // refutation to extract a core from.
    if (Explain && O == sat::Outcome::Unsat)
      explainUnsat();
    return Attempt::Unsat; // Unknown (budget hit) also counts as no-shrink
  }
  Sp.arg("outcome", "sat");

  Assignment.assign(Clusters.size(), Base{});
  for (size_t I = 0; I < Clusters.size(); ++I) {
    uint32_t G = First[I];
    while (G < First[I + 1] && !S.value(VarOf[G]))
      ++G;
    if (G == First[I + 1]) {
      Err = "internal error: satisfiable model without a chosen candidate";
      return Attempt::Error;
    }
    Assignment[I] = Cands[G];
  }
  return Attempt::Sat;
}

bool Placer::propagate(std::vector<Base> &Assignment, uint64_t &Decisions,
                       uint64_t &Propagations) const {
  size_t N = Clusters.size();
  constexpr uint32_t None = UINT32_MAX;
  std::vector<uint32_t> Chosen(N, None);
  std::vector<uint8_t> Dead(Cands.size(), 0);
  std::vector<uint32_t> Live(N);
  std::vector<uint32_t> Units; // clusters left with one live candidate
  for (size_t I = 0; I < N; ++I) {
    Live[I] = First[I + 1] - First[I];
    if (Live[I] == 1)
      Units.push_back(static_cast<uint32_t>(I));
  }
  auto LowestLive = [&](uint32_t I) {
    uint32_t G = First[I];
    while (Dead[G])
      ++G;
    return G;
  };
  std::vector<size_t> Keys;
  auto Choose = [&](uint32_t G) {
    const Cluster &C = Clusters[ClusterOf[G]];
    Keys.clear();
    for (const Member &M : C.Members) {
      device::Slot S = C.slotOf(M, Cands[G]);
      Keys.push_back(size_t(S.X) * UserRows + S.Y);
    }
    for (size_t A = 0; A < Keys.size(); ++A)
      for (size_t Z = A + 1; Z < Keys.size(); ++Z)
        if (Keys[A] == Keys[Z])
          return false;
    Chosen[ClusterOf[G]] = G;
    for (size_t K : Keys)
      for (uint32_t U = UserStart[K]; U < UserStart[K + 1]; ++U) {
        uint32_t H = Users[U];
        uint32_t J = ClusterOf[H];
        if (Dead[H] || Chosen[J] != None)
          continue;
        Dead[H] = 1;
        if (--Live[J] == 0)
          return false;
        if (Live[J] == 1)
          Units.push_back(J);
      }
    return true;
  };
  auto Settle = [&] {
    while (!Units.empty()) {
      uint32_t J = Units.back();
      Units.pop_back();
      if (Chosen[J] == None && !Choose(LowestLive(J)))
        return false;
    }
    return true;
  };

  Decisions = 0;
  if (!Settle())
    return false;
  for (uint32_t I = 0; I < N; ++I) {
    if (Chosen[I] != None)
      continue;
    ++Decisions;
    if (!Choose(LowestLive(I)) || !Settle())
      return false;
  }
  // A conflict-free run assigns and propagates every CNF variable once:
  // one per candidate, plus the n - 1 auxiliaries of every at-most-one
  // over n >= 3 literals. The slot groups' auxiliaries are the last
  // variables, and the solver decides each such group once when no
  // chosen candidate holds its slot.
  auto Aux = [](uint32_t Lits) { return Lits >= 3 ? Lits - 1 : 0; };
  Propagations = Cands.size();
  for (size_t I = 0; I < N; ++I)
    Propagations += Aux(First[I + 1] - First[I]);
  for (size_t K = 0; K + 1 < UserStart.size(); ++K) {
    uint32_t Lits = UserStart[K + 1] - UserStart[K];
    Propagations += Aux(Lits);
    bool Held = Lits < 3;
    for (uint32_t U = UserStart[K]; U < UserStart[K + 1] && !Held; ++U)
      Held = Chosen[ClusterOf[Users[U]]] == Users[U];
    Decisions += Held ? 0 : 1;
  }

  Assignment.clear();
  for (size_t I = 0; I < N; ++I)
    Assignment.push_back(Cands[Chosen[I]]);
  return true;
}

void Placer::accumulate(const sat::Solver::Statistics &D, bool BudgetHit) {
  if (!Stats)
    return;
  Stats->Conflicts += D.Conflicts;
  Stats->Decisions += D.Decisions;
  Stats->Propagations += D.Propagations;
  Stats->Restarts += D.Restarts;
  Stats->Learned += D.Learned;
  Stats->BudgetExhausted += BudgetHit ? 1 : 0;
  Stats->SatMs += D.SolveMs;
  static_assert(sat::Solver::Statistics::HistogramBuckets ==
                std::tuple_size_v<decltype(Stats->LbdHistogram)>);
  for (size_t K = 0; K < D.LbdHistogram.size(); ++K) {
    Stats->LbdHistogram[K] += D.LbdHistogram[K];
    Stats->LearnedSizeHistogram[K] += D.LearnedSizeHistogram[K];
  }
}

std::vector<device::Slot>
Placer::slotsOf(const std::vector<Base> &Assignment) const {
  std::vector<device::Slot> Slots;
  for (size_t I = 0; I < Clusters.size(); ++I)
    for (const Member &M : Clusters[I].Members)
      Slots.push_back(Clusters[I].slotOf(M, Assignment[I]));
  return Slots;
}

void Placer::explainUnsat() {
  // Re-emit the encoding with one selector literal per constraint group:
  // group clauses become (clause ∨ ¬selector) and the solve assumes every
  // selector, so the failed-assumption core names exactly the groups that
  // refute each other. Per-cluster exclusivity stays hard — relaxing "at
  // most one candidate" never models a real layout, so it cannot explain
  // one.
  obs::Span Sp(Ctx, "place.explain");
  // The extraction solver re-proves UNSAT once plus once per minimization
  // probe; mute its sat:unsat remarks (keeping spans/counters) so the
  // stream carries only the curated sat:core records.
  static obs::RemarkStream MutedRemarks;
  obs::Context Quiet{Ctx.Telem, &MutedRemarks};
  sat::Solver S(Quiet);
  struct Group {
    std::string Kind;
    std::string Instr;
    std::string Detail;
  };
  std::vector<Group> Groups;
  std::vector<sat::Lit> Selectors;
  std::map<uint32_t, size_t> GroupOfVar;
  auto MakeSelector = [&](std::string Kind, std::string Instr,
                          std::string Detail) {
    sat::Var V = S.newVar();
    GroupOfVar[V] = Groups.size();
    Groups.push_back({std::move(Kind), std::move(Instr), std::move(Detail)});
    Selectors.push_back(sat::Lit(V));
    return sat::Lit(V);
  };

  std::vector<sat::Var> VarOf(Cands.size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    const Cluster &C = Clusters[I];
    std::vector<sat::Lit> Lits;
    for (uint32_t G = First[I]; G < First[I + 1]; ++G) {
      VarOf[G] = S.newVar();
      Lits.push_back(sat::Lit(VarOf[G]));
    }
    // The cluster's row span mirrors its relative adjacency constraints
    // (e.g. a cascade chain at (x, y) .. (x, y+k)).
    int64_t MinDy = 0, MaxDy = 0;
    for (const Member &M : C.Members)
      if (M.YRel) {
        MinDy = std::min(MinDy, M.DY);
        MaxDy = std::max(MaxDy, M.DY);
      }
    std::string Rep = Prog.body()[C.Members.front().BodyIndex].dst();
    std::string Detail =
        "cluster of " + std::to_string(C.Members.size()) + " " +
        std::string(ir::resourceName(C.Prim)) + " instruction(s)" +
        (MaxDy > MinDy
             ? " spanning " + std::to_string(MaxDy - MinDy + 1) + " row(s)"
             : "") +
        " must take one of " + std::to_string(First[I + 1] - First[I]) +
        " base position(s)";
    sat::Lit Sel = MakeSelector("choose-one", Rep, std::move(Detail));
    std::vector<sat::Lit> Guarded = Lits;
    Guarded.push_back(~Sel);
    S.addClause(std::move(Guarded));
    addAtMostOne(S, Lits);
  }
  for (size_t K = 0; K + 1 < UserStart.size(); ++K) {
    if (UserStart[K + 1] - UserStart[K] <= 1)
      continue; // a sole user can never collide
    std::vector<sat::Lit> Lits;
    for (uint32_t U = UserStart[K]; U < UserStart[K + 1]; ++U)
      Lits.push_back(sat::Lit(VarOf[Users[U]]));
    // Users are in candidate order, so the first names the lowest cluster
    // competing for the slot.
    const Cluster &FirstCluster = Clusters[ClusterOf[Users[UserStart[K]]]];
    std::string Rep = Prog.body()[FirstCluster.Members.front().BodyIndex].dst();
    unsigned X = static_cast<unsigned>(K / UserRows);
    unsigned Y = static_cast<unsigned>(K % UserRows);
    sat::Lit Sel = MakeSelector(
        "distinct", Rep,
        "slot " + std::string(ir::resourceName(Dev.columns()[X].Kind)) + "(" +
            std::to_string(X) + ", " + std::to_string(Y) +
            ") admits one instruction but " + std::to_string(Lits.size()) +
            " candidate(s) compete for it");
    addAtMostOne(S, Lits, Sel);
  }

  sat::Outcome O = S.solveWith(Selectors);
  Sp.arg("groups", static_cast<uint64_t>(Groups.size()));
  if (O != sat::Outcome::Unsat)
    return; // defensive: nothing to explain without a refutation
  std::vector<sat::Lit> Core =
      S.minimizeCore(S.unsatCore(), /*ProbeConflictBudget=*/5000);
  Sp.arg("core", static_cast<uint64_t>(Core.size()));
  std::vector<size_t> Indices;
  for (sat::Lit L : Core)
    if (auto It = GroupOfVar.find(L.var()); It != GroupOfVar.end())
      Indices.push_back(It->second);
  std::sort(Indices.begin(), Indices.end());
  for (size_t Idx : Indices)
    noteCore(Groups[Idx].Kind, Groups[Idx].Instr, Groups[Idx].Detail);
}

Result<AsmProgram> Placer::run() {
  ++Ctx.counter("place.runs");
  if (Stats)
    Stats->Mode = Options.Mode;
  if (Status St = buildClusters(); !St)
    return fail<AsmProgram>(St.error());
  Ctx.counter("place.clusters") += Clusters.size();

  Bounds Full{Dev.numColumns() ? Dev.numColumns() - 1 : 0, 0};
  unsigned TallestColumn = std::max(Dev.maxHeight(ir::Resource::Lut),
                                    Dev.maxHeight(ir::Resource::Dsp));
  Full.MaxRow = TallestColumn ? TallestColumn - 1 : 0;

  // First solution: grow the candidate cap until satisfiable or fully
  // enumerated.
  size_t FullCap = static_cast<size_t>(Dev.numColumns()) * TallestColumn + 1;
  size_t Cap = std::max<size_t>(InitialCandidateCap, 2 * Clusters.size() + 8);
  std::vector<Base> BestAssignment;
  SolveInfo Info;
  while (true) {
    std::string Err;
    if (Options.Proof)
      Options.Proof->comment("place: initial attempt, cap=" +
                             std::to_string(Cap));
    // Once the cap admits full enumeration the attempt is conclusive, so
    // an UNSAT there is worth explaining: solveOnce then extracts and
    // emits the named constraint core.
    Attempt A = solveOnce(Full, Cap, BestAssignment, Err,
                          /*ConflictBudget=*/0, /*Explain=*/Cap >= FullCap,
                          &Info);
    if (A == Attempt::Error)
      return fail<AsmProgram>(Err);
    if (A == Attempt::Sat)
      break;
    if (Cap >= FullCap)
      return fail<AsmProgram>("placement failed: no valid layout for " +
                              std::to_string(Clusters.size()) +
                              " cluster(s) on device '" + Dev.name() + "'");
    Cap = std::min(FullCap, Cap * 4);
  }

  // Timeline frame recorder: every frame carries the accepted layout so
  // far, so the renderer can draw the best-known floorplan under each
  // probe's attempted bound.
  auto RecordFrame = [&](ShrinkProbe::Axis Ax, unsigned Bound,
                         ShrinkProbe::Outcome Oc, const SolveInfo &SI) {
    if (!Stats)
      return;
    ShrinkProbe P;
    P.ProbeAxis = Ax;
    P.Bound = Bound;
    P.Result = Oc;
    P.Conflicts = SI.Conflicts;
    P.Decisions = SI.Decisions;
    P.Slots = slotsOf(BestAssignment);
    for (const auto &[BodyIndex, S] : Pinned)
      P.Slots.push_back(S);
    for (const device::Slot &S : P.Slots) {
      P.MaxColumn = std::max(P.MaxColumn, S.X);
      P.MaxRow = std::max(P.MaxRow, S.Y);
    }
    Stats->Timeline.push_back(std::move(P));
  };
  RecordFrame(ShrinkProbe::Axis::Initial, 0, ShrinkProbe::Outcome::Sat, Info);
  if (Ctx.remarksEnabled())
    obs::Remark(Ctx, "place", "solve")
        .message("first placement found for " +
                 std::to_string(Clusters.size()) + " cluster(s) on '" +
                 Dev.name() + "' (candidate cap " + std::to_string(Cap) + ")")
        .arg("clusters", static_cast<uint64_t>(Clusters.size()))
        .arg("fixed_clusters", static_cast<uint64_t>(Pinned.size()))
        .arg("candidate_cap", static_cast<uint64_t>(Cap))
        .arg("device", Dev.name());

  // Shrinking passes: take the used area as the bound and binary-search a
  // smaller one, re-running placement (Section 5.3). Every probe
  // re-enumerates its candidates under the tried bound.
  auto ShrinkT0 = std::chrono::steady_clock::now();
  if (Options.Shrink && !Clusters.empty()) {
    // Bounds needed by the placeable clusters alone. Fixed (pinned) slots
    // are excluded: they are not enumerated, so they may lie outside the
    // shrink window without affecting feasibility.
    auto UsedBounds = [&](const std::vector<Base> &Assignment) {
      Bounds B{0, 0};
      for (const device::Slot &S : slotsOf(Assignment)) {
        B.MaxColumn = std::max(B.MaxColumn, S.X);
        B.MaxRow = std::max(B.MaxRow, S.Y);
      }
      return B;
    };
    Bounds Cur{Full.MaxColumn, Full.MaxRow};

    // Shrink columns, then rows, by binary search (Section 5.3). Columns
    // first: packing into few columns keeps DSP chains near their cascade
    // routing.
    obs::Counter &ShrinkIters = Ctx.counter("place.shrink_iters");
    for (int Axis = 0; Axis < 2; ++Axis) {
      unsigned Low = 0;
      unsigned High = Axis == 0 ? UsedBounds(BestAssignment).MaxColumn
                                : UsedBounds(BestAssignment).MaxRow;
      while (Low < High) {
        unsigned Mid = Low + (High - Low) / 2;
        obs::Span Sp(Ctx, "place.shrink");
        Sp.arg("axis", Axis == 0 ? "col" : "row");
        Sp.arg("bound", Mid);
        ++ShrinkIters;
        if (Stats)
          ++Stats->ShrinkIterations;
        Bounds Try = Cur;
        (Axis == 0 ? Try.MaxColumn : Try.MaxRow) = Mid;
        std::vector<Base> Assignment;
        std::string Err;
        if (Options.Proof)
          Options.Proof->comment(
              std::string("place: shrink probe axis=") +
              (Axis == 0 ? "col" : "row") + " bound=" + std::to_string(Mid));
        Attempt A = solveOnce(Try, FullCap, Assignment, Err,
                              /*ConflictBudget=*/50000, /*Explain=*/false,
                              &Info);
        if (A == Attempt::Error)
          return fail<AsmProgram>(Err);
        if (Stats)
          ++(Info.SatBacked ? Stats->IncrementalProbes
                            : Stats->PrecheckProbes);
        Ctx.counter(Info.SatBacked ? "sat.shrink.probes"
                                   : "sat.shrink.precheck_probes") += 1;
        Sp.arg("fits", A == Attempt::Sat ? "yes" : "no");
        const char *OutcomeName = A == Attempt::Sat ? "sat"
                                  : Info.BudgetExhausted ? "budget_exhausted"
                                                         : "unsat";
        // The constraint that stops an area shrink is exactly this UNSAT.
        // Per-probe conflict/decision counts come from the solver's
        // per-solve profile, which survives budget-exhausted (Unknown)
        // outcomes, so a probe that gave up still reports the work it did.
        if (Ctx.remarksEnabled())
          obs::Remark(Ctx, "place", "shrink-probe")
              .message(std::string("shrink ") +
                       (Axis == 0 ? "columns" : "rows") + " to <= " +
                       std::to_string(Mid) +
                       (A == Attempt::Sat
                            ? ": SAT, layout fits"
                            : Info.BudgetExhausted
                                  ? ": conflict budget exhausted, bound kept"
                                  : ": UNSAT, bound kept"))
              .arg("axis", Axis == 0 ? "col" : "row")
              .arg("bound", Mid)
              .arg("outcome", OutcomeName)
              .arg("conflicts", Info.Conflicts)
              .arg("decisions", Info.Decisions);
        if (A == Attempt::Sat) {
          BestAssignment = std::move(Assignment);
          High = std::min(Mid, Axis == 0
                                   ? UsedBounds(BestAssignment).MaxColumn
                                   : UsedBounds(BestAssignment).MaxRow);
        } else {
          Low = Mid + 1;
        }
        RecordFrame(Axis == 0 ? ShrinkProbe::Axis::Column
                              : ShrinkProbe::Axis::Row,
                    Mid,
                    A == Attempt::Sat        ? ShrinkProbe::Outcome::Sat
                    : Info.BudgetExhausted   ? ShrinkProbe::Outcome::Budget
                                             : ShrinkProbe::Outcome::Unsat,
                    Info);
      }
      (Axis == 0 ? Cur.MaxColumn : Cur.MaxRow) = High;
    }
  }
  if (Stats)
    Stats->ShrinkMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - ShrinkT0)
                          .count();

  // Materialize the placed program.
  AsmProgram Placed(Prog.name());
  Placed.inputs() = Prog.inputs();
  Placed.outputs() = Prog.outputs();
  std::vector<device::Slot> SlotOf(Prog.body().size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    const Cluster &C = Clusters[I];
    for (const Member &M : C.Members)
      SlotOf[M.BodyIndex] = C.slotOf(M, BestAssignment[I]);
    // Which column kind each cluster bound to, and where.
    if (Ctx.remarksEnabled()) {
      device::Slot At = C.slotOf(C.Members.front(), BestAssignment[I]);
      obs::Remark(Ctx, "place", "bind")
          .instr(Prog.body()[C.Members.front().BodyIndex].dst())
          .message("cluster of " + std::to_string(C.Members.size()) +
                   " bound to " + std::string(ir::resourceName(C.Prim)) +
                   " column " + std::to_string(At.X) + ", base row " +
                   std::to_string(At.Y))
          .arg("column_kind", ir::resourceName(C.Prim))
          .arg("x", At.X)
          .arg("y", At.Y)
          .arg("members", static_cast<uint64_t>(C.Members.size()));
    }
  }
  for (const auto &[BodyIndex, S] : Pinned)
    SlotOf[BodyIndex] = S;
  unsigned MaxC = 0, MaxR = 0, NumPlaced = 0;
  for (size_t I = 0; I < Prog.body().size(); ++I) {
    const AsmInstr &A = Prog.body()[I];
    if (A.isWire()) {
      Placed.addInstr(A);
      continue;
    }
    device::Slot S = SlotOf[I];
    rasm::Loc L{A.loc().Prim, Coord::lit(S.X), Coord::lit(S.Y)};
    Placed.addInstr(AsmInstr::makeOp(A.dst(), A.type(), A.opName(), A.args(),
                                     std::move(L), A.attrs()));
    MaxC = std::max(MaxC, S.X);
    MaxR = std::max(MaxR, S.Y);
    ++NumPlaced;
    if (Stats) {
      Stats->MaxColumn = std::max(Stats->MaxColumn, S.X);
      Stats->MaxRow = std::max(Stats->MaxRow, S.Y);
    }
  }
  if (Ctx.remarksEnabled())
    obs::Remark(Ctx, "place", "area")
        .message("final bounding box: columns 0.." + std::to_string(MaxC) +
                 ", rows 0.." + std::to_string(MaxR) + " for " +
                 std::to_string(NumPlaced) + " instruction(s) on '" +
                 Dev.name() + "'")
        .arg("max_column", MaxC)
        .arg("max_row", MaxR)
        .arg("placed", NumPlaced)
        .arg("device", Dev.name());
  return Placed;
}

} // namespace

Result<AsmProgram> reticle::place::place(const AsmProgram &Prog,
                                         const device::Device &Dev,
                                         const PlacementOptions &Options,
                                         PlacementStats *Stats,
                                         const obs::Context &Ctx) {
  Placer P(Prog, Dev, Options, Stats, Ctx);
  return P.run();
}

Status reticle::place::checkPlacement(const AsmProgram &Original,
                                      const AsmProgram &Placed,
                                      const device::Device &Dev) {
  if (Original.body().size() != Placed.body().size())
    return Status::failure("instruction count changed during placement");

  std::set<device::Slot> Used;
  // One interner per axis maps coordinate variables to dense ids; the
  // resolved base per variable lives in a flat vector alongside it.
  ir::NameInterner XVars, YVars;
  std::vector<std::optional<int64_t>> VarX, VarY;
  for (size_t I = 0; I < Original.body().size(); ++I) {
    const AsmInstr &O = Original.body()[I];
    const AsmInstr &P = Placed.body()[I];
    if (O.isWire() != P.isWire())
      return Status::failure("instruction kind changed during placement");
    if (O.isWire())
      continue;
    if (!P.loc().X.isLit() || !P.loc().Y.isLit())
      return Status::failure("unresolved coordinate in '" + P.str() + "'");
    int64_t X = P.loc().X.offset();
    int64_t Y = P.loc().Y.offset();
    if (X < 0 || Y < 0 ||
        !Dev.isValidSlot(O.loc().Prim, static_cast<unsigned>(X),
                         static_cast<unsigned>(Y)))
      return Status::failure("'" + P.str() + "' is placed on an invalid " +
                             std::string(ir::resourceName(O.loc().Prim)) +
                             " slot");
    device::Slot S{static_cast<unsigned>(X), static_cast<unsigned>(Y)};
    if (!Used.insert(S).second)
      return Status::failure("two instructions share slot (" +
                             std::to_string(X) + ", " + std::to_string(Y) +
                             ")");
    // Literal pins and relative variable constraints.
    auto CheckAxis = [&](const Coord &C, int64_t Value,
                         ir::NameInterner &Vars,
                         std::vector<std::optional<int64_t>> &Bases)
        -> Status {
      if (C.isLit() && C.offset() != Value)
        return Status::failure("pinned coordinate changed in '" + P.str() +
                               "'");
      if (C.isVar()) {
        int64_t Base = Value - C.offset();
        ir::ValueId Id = Vars.intern(C.name());
        if (Id == Bases.size())
          Bases.emplace_back();
        if (!Bases[Id])
          Bases[Id] = Base;
        else if (*Bases[Id] != Base)
          return Status::failure("relative constraint on '" + C.name() +
                                 "' violated in '" + P.str() + "'");
      }
      return Status::success();
    };
    if (Status St = CheckAxis(O.loc().X, X, XVars, VarX); !St)
      return St;
    if (Status St = CheckAxis(O.loc().Y, Y, YVars, VarY); !St)
      return St;
  }
  return Status::success();
}
