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

using namespace reticle;
using namespace reticle::place;
using rasm::AsmInstr;
using rasm::AsmProgram;
using rasm::Coord;

namespace {

/// Initial cap on enumerated base positions per cluster; the first
/// solution grows it (up to full enumeration) while the capped attempt
/// is unsatisfiable.
constexpr size_t InitialCandidateCap = 128;

/// One placeable instruction with normalized coordinate expressions.
struct Member {
  size_t BodyIndex = 0;
  Coord X;
  Coord Y;
};

/// A rigid group of instructions related by shared coordinate variables.
struct Cluster {
  ir::Resource Prim = ir::Resource::Lut;
  std::optional<std::string> XVar;
  std::optional<std::string> YVar;
  std::vector<Member> Members;
  /// True when every member coordinate is a literal; such clusters are
  /// pre-placed and only contribute occupancy.
  bool isFixed() const { return !XVar && !YVar; }
};

/// A concrete base assignment for a cluster's variables.
struct Candidate {
  int64_t XBase = 0;
  int64_t YBase = 0;
  std::vector<device::Slot> Slots; // one per member, in member order
};

/// Per-kind area bounds used by the shrinking passes (exclusive).
struct Bounds {
  unsigned MaxColumn = 0; ///< columns with index <= MaxColumn usable
  unsigned MaxRow = 0;    ///< rows with index <= MaxRow usable
};

/// Resolves a member's coordinates for given variable bases.
bool memberSlot(const Member &M, int64_t XBase, int64_t YBase,
                device::Slot &Out) {
  int64_t X = M.X.isLit() ? M.X.offset() : XBase + M.X.offset();
  int64_t Y = M.Y.isLit() ? M.Y.offset() : YBase + M.Y.offset();
  if (X < 0 || Y < 0)
    return false;
  Out = device::Slot{static_cast<unsigned>(X), static_cast<unsigned>(Y)};
  return true;
}

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
  Result<std::vector<Candidate>> enumerate(const Cluster &C,
                                           const Bounds &B,
                                           size_t Cap) const;
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
  /// \p Assignment with the chosen candidate per non-fixed cluster. In
  /// Propagate mode the enumerated candidates go through propagate() first
  /// and the CNF is built only when it fails. A nonzero \p ConflictBudget
  /// bounds the CNF search (shrinking attempts give up rather than fight
  /// pigeonhole-hard instances). With \p Explain set,
  /// an unsatisfiable attempt is additionally explained: the encoding is
  /// re-emitted with one selector literal per constraint group, the
  /// failed-assumption core is extracted and minimized, and each surviving
  /// group is reported as a named sat:core remark and a
  /// PlacementStats::Core entry.
  enum class Attempt { Sat, Unsat, Error };
  Attempt solveOnce(const Bounds &B, size_t Cap,
                    std::vector<Candidate> &Assignment, std::string &Err,
                    uint64_t ConflictBudget = 0, bool Explain = false,
                    SolveInfo *Info = nullptr);
  /// Records one named core constraint (stats + sat:core remark).
  void noteCore(const std::string &Kind, const std::string &Instr,
                const std::string &Detail);
  /// Selector-tagged re-encoding and core extraction for a proved-UNSAT
  /// attempt; \p Cands holds the enumerated candidates per cluster.
  void explainUnsat(const std::vector<std::vector<Candidate>> &Cands);

  /// Arithmetic infeasibility precheck shared by every solve path: demand
  /// vs capacity within the bounds, and cascade-chain segment capacity.
  /// Returns true (and tags \p Sp) when \p B provably cannot fit.
  bool capacityInfeasible(const Bounds &B, bool Explain, obs::Span &Sp);

  /// First-fit unit propagation over one attempt's enumerated
  /// candidates. Replays what the CDCL solver does on their CNF while it
  /// meets no conflict: every single-candidate cluster is a root unit,
  /// then each decision sets the lowest unassigned variable true — the
  /// lowest live candidate of the first unplaced cluster — and unit
  /// propagation kills every candidate sharing a slot with a chosen one
  /// and chooses any cluster left with one live candidate. Returns false
  /// exactly where the solver would hit a conflict (a cluster's domain
  /// empties, or a chosen candidate lists one slot twice); otherwise
  /// fills \p Assignment with the solver's model, and \p Decisions and
  /// \p Propagations with the counts the solver would have reported.
  bool propagate(const std::vector<std::vector<Candidate>> &Cands,
                 const Bounds &B, std::vector<Candidate> &Assignment,
                 uint64_t &Decisions, uint64_t &Propagations) const;

  /// Accumulates one fresh solver's effort into PlacementStats.
  void accumulate(const sat::Solver::Statistics &D, bool BudgetHit);

  const AsmProgram &Prog;
  const device::Device &Dev;
  PlacementOptions Options;
  PlacementStats *Stats;
  const obs::Context &Ctx;

  std::vector<Cluster> Clusters;      // non-fixed
  std::vector<Cluster> FixedClusters; // fully literal
  std::set<device::Slot> FixedSlots;
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

  // Group by representative id; fully literal instructions form fixed
  // singleton clusters. Cluster indices follow first-seen scan order.
  std::vector<size_t> GroupOf(Parent.size(), SIZE_MAX);
  for (const NormInstr &N : Instrs) {
    if (!N.X.isVar() && !N.Y.isVar()) {
      Cluster C;
      C.Prim = N.Prim;
      C.Members.push_back({N.BodyIndex, N.X, N.Y});
      FixedClusters.push_back(std::move(C));
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
    C.Members.push_back({N.BodyIndex, N.X, N.Y});
  }

  // Fixed clusters occupy slots up front.
  for (const Cluster &C : FixedClusters) {
    const Member &M = C.Members[0];
    device::Slot S;
    if (!memberSlot(M, 0, 0, S) ||
        !Dev.isValidSlot(C.Prim, S.X, S.Y))
      return Status::failure(
          "pinned location " + Prog.body()[M.BodyIndex].loc().str() +
          " is not a valid " + ir::resourceName(C.Prim) + " slot on device '" +
          Dev.name() + "'");
    if (!FixedSlots.insert(S).second)
      return Status::failure("two instructions pinned to one slot");
  }
  return Status::success();
}

Result<std::vector<Candidate>>
Placer::enumerate(const Cluster &C, const Bounds &B, size_t Cap) const {
  std::vector<Candidate> Out;
  // Column (x) base values to try: all usable columns when XVar is free,
  // else the single value 0 (unused).
  unsigned NumCols = std::min<unsigned>(Dev.numColumns(), B.MaxColumn + 1);
  unsigned MaxRows = std::min<unsigned>(Dev.maxHeight(C.Prim), B.MaxRow + 1);
  std::vector<int64_t> XBases;
  if (C.XVar) {
    for (unsigned X = 0; X < NumCols; ++X)
      XBases.push_back(X);
  } else {
    XBases.push_back(0);
  }
  std::vector<int64_t> YBases;
  if (C.YVar) {
    for (unsigned Y = 0; Y < MaxRows; ++Y)
      YBases.push_back(Y);
  } else {
    YBases.push_back(0);
  }
  for (int64_t XB : XBases) {
    for (int64_t YB : YBases) {
      Candidate Cand;
      Cand.XBase = XB;
      Cand.YBase = YB;
      bool Ok = true;
      for (const Member &M : C.Members) {
        device::Slot S;
        if (!memberSlot(M, XB, YB, S) || S.X > B.MaxColumn ||
            S.Y > B.MaxRow || !Dev.isValidSlot(C.Prim, S.X, S.Y) ||
            FixedSlots.count(S)) {
          Ok = false;
          break;
        }
        Cand.Slots.push_back(S);
      }
      if (!Ok)
        continue;
      Out.push_back(std::move(Cand));
      if (Out.size() >= Cap)
        return Out;
    }
  }
  return Out;
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
  // exponential, so rule the case out arithmetically first.
  std::map<ir::Resource, size_t> Demand;
  for (const Cluster &C : Clusters)
    Demand[C.Prim] += C.Members.size();
  // Tall clusters (cascade chains) need that many *consecutive* rows in
  // one column; bound the number of placeable tall clusters per kind by
  // the shortest chain height. This is a sound relaxation that rejects
  // the pigeonhole-shaped shrink probes arithmetically.
  std::map<ir::Resource, std::pair<size_t, unsigned>> TallClusters;
  for (const Cluster &C : Clusters) {
    int64_t MinDy = 0, MaxDy = 0;
    bool First = true;
    for (const Member &M : C.Members) {
      if (!M.Y.isVar())
        continue;
      if (First) {
        MinDy = MaxDy = M.Y.offset();
        First = false;
      } else {
        MinDy = std::min(MinDy, M.Y.offset());
        MaxDy = std::max(MaxDy, M.Y.offset());
      }
    }
    unsigned Height = First ? 1 : static_cast<unsigned>(MaxDy - MinDy + 1);
    if (Height < 2)
      continue;
    auto &[Count, MinHeight] = TallClusters[C.Prim];
    ++Count;
    MinHeight = Count == 1 ? Height : std::min(MinHeight, Height);
  }
  for (auto &[Kind, Need] : Demand) {
    size_t Capacity = 0;
    size_t SegmentCapacity = 0;
    unsigned MinHeight = 1;
    size_t TallNeed = 0;
    if (auto It = TallClusters.find(Kind); It != TallClusters.end()) {
      TallNeed = It->second.first;
      MinHeight = It->second.second;
    }
    unsigned NumCols = std::min<unsigned>(Dev.numColumns(), B.MaxColumn + 1);
    for (unsigned X = 0; X < NumCols; ++X) {
      const device::Column &Col = Dev.columns()[X];
      if (Col.Kind != Kind)
        continue;
      unsigned Rows = std::min<unsigned>(Col.Height, B.MaxRow + 1);
      Capacity += Rows;
      SegmentCapacity += Rows / MinHeight;
    }
    for (const device::Slot &S : FixedSlots)
      if (S.X <= B.MaxColumn && S.Y <= B.MaxRow &&
          Dev.columns()[S.X].Kind == Kind)
        --Capacity;
    if (Need > Capacity || TallNeed > SegmentCapacity) {
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
            Need > Capacity
                ? "demand for " + std::to_string(Need) + " " +
                      std::string(ir::resourceName(Kind)) +
                      " slot(s) exceeds the " + std::to_string(Capacity) +
                      " available within columns <= " +
                      std::to_string(B.MaxColumn) + ", rows <= " +
                      std::to_string(B.MaxRow) + " on device '" + Dev.name() +
                      "'"
                : std::to_string(TallNeed) + " cascade chain(s) of height >= " +
                      std::to_string(MinHeight) + " need " +
                      std::to_string(TallNeed) +
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
                                  std::vector<Candidate> &Assignment,
                                  std::string &Err,
                                  uint64_t ConflictBudget, bool Explain,
                                  SolveInfo *Info) {
  if (Info)
    *Info = {};
  obs::Span Sp(Ctx, "place.solve");
  Sp.arg("max_col", B.MaxColumn);
  Sp.arg("max_row", B.MaxRow);
  Sp.arg("cap", static_cast<uint64_t>(Cap));
  Sp.arg("clusters", static_cast<uint64_t>(Clusters.size()));
  if (capacityInfeasible(B, Explain, Sp))
    return Attempt::Unsat;

  std::vector<std::vector<Candidate>> Cands(Clusters.size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    Result<std::vector<Candidate>> E = enumerate(Clusters[I], B, Cap);
    if (!E) {
      Err = E.error();
      return Attempt::Error;
    }
    Cands[I] = E.take();
    if (Cands[I].empty()) {
      Sp.arg("outcome", "no_candidates");
      if (Explain) {
        const Cluster &C = Clusters[I];
        noteCore("range",
                 Prog.body()[C.Members.front().BodyIndex].dst(),
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
  }

  uint64_t Decisions = 0, Propagations = 0;
  if (Options.Mode == SatMode::Propagate &&
      propagate(Cands, B, Assignment, Decisions, Propagations)) {
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
  // SAT variables per (cluster, candidate).
  std::vector<std::vector<sat::Var>> Vars(Clusters.size());
  std::map<device::Slot, std::vector<sat::Lit>> SlotUsers;
  for (size_t I = 0; I < Clusters.size(); ++I) {
    std::vector<sat::Lit> Lits;
    for (const Candidate &Cand : Cands[I]) {
      sat::Var V = S.newVar();
      Vars[I].push_back(V);
      Lits.push_back(sat::Lit(V));
      for (const device::Slot &Slot : Cand.Slots)
        SlotUsers[Slot].push_back(sat::Lit(V));
    }
    // Exactly one candidate per cluster.
    if (!S.addClause(Lits))
      return Attempt::Unsat;
    addAtMostOne(S, Lits);
  }
  // Distinct slots: at most one user per slot. A multi-member cluster may
  // cover one slot with two members only through distinct candidates, so
  // pairwise AMO over candidate literals is exact.
  for (auto &[Slot, Lits] : SlotUsers)
    addAtMostOne(S, Lits);

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
      explainUnsat(Cands);
    return Attempt::Unsat; // Unknown (budget hit) also counts as no-shrink
  }
  Sp.arg("outcome", "sat");

  Assignment.clear();
  Assignment.resize(Clusters.size());
  for (size_t I = 0; I < Clusters.size(); ++I) {
    bool Chosen = false;
    for (size_t K = 0; K < Vars[I].size(); ++K)
      if (S.value(Vars[I][K])) {
        Assignment[I] = Cands[I][K];
        Chosen = true;
        break;
      }
    if (!Chosen) {
      Err = "internal error: satisfiable model without a chosen candidate";
      return Attempt::Error;
    }
  }
  return Attempt::Sat;
}

bool Placer::propagate(const std::vector<std::vector<Candidate>> &Cands,
                       const Bounds &B, std::vector<Candidate> &Assignment,
                       uint64_t &Decisions, uint64_t &Propagations) const {
  // Candidates numbered densely in CNF variable order: cluster I owns
  // [First[I], First[I + 1]).
  size_t N = Clusters.size();
  std::vector<uint32_t> First(N + 1, 0);
  for (size_t I = 0; I < N; ++I)
    First[I + 1] = First[I] + static_cast<uint32_t>(Cands[I].size());
  std::vector<uint32_t> ClusterOf(First[N]);
  for (size_t I = 0; I < N; ++I)
    std::fill(ClusterOf.begin() + First[I], ClusterOf.begin() + First[I + 1],
              static_cast<uint32_t>(I));
  auto CandOf = [&](uint32_t G) -> const Candidate & {
    return Cands[ClusterOf[G]][G - First[ClusterOf[G]]];
  };

  // CSR table from slot to its users, one entry per member slot exactly as
  // the CNF's slot at-most-one lists them (a candidate naming one slot
  // twice appears twice).
  size_t Rows = size_t(B.MaxRow) + 1;
  auto Key = [&](const device::Slot &S) { return S.X * Rows + S.Y; };
  std::vector<uint32_t> UserStart((size_t(B.MaxColumn) + 1) * Rows + 1, 0);
  for (uint32_t G = 0; G < First[N]; ++G)
    for (const device::Slot &S : CandOf(G).Slots)
      ++UserStart[Key(S) + 1];
  for (size_t K = 1; K < UserStart.size(); ++K)
    UserStart[K] += UserStart[K - 1];
  std::vector<uint32_t> Users(UserStart.back());
  std::vector<uint32_t> Fill(UserStart.begin(), UserStart.end() - 1);
  for (uint32_t G = 0; G < First[N]; ++G)
    for (const device::Slot &S : CandOf(G).Slots)
      Users[Fill[Key(S)]++] = G;

  constexpr uint32_t None = UINT32_MAX;
  std::vector<uint32_t> Chosen(N, None);
  std::vector<uint8_t> Dead(First[N], 0);
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
  auto Choose = [&](uint32_t G) {
    const std::vector<device::Slot> &Slots = CandOf(G).Slots;
    for (size_t A = 0; A < Slots.size(); ++A)
      for (size_t Z = A + 1; Z < Slots.size(); ++Z)
        if (Slots[A] == Slots[Z])
          return false;
    Chosen[ClusterOf[G]] = G;
    for (const device::Slot &S : Slots)
      for (uint32_t U = UserStart[Key(S)]; U < UserStart[Key(S) + 1]; ++U) {
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
  Propagations = First[N];
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
    Assignment.push_back(CandOf(Chosen[I]));
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

void Placer::explainUnsat(const std::vector<std::vector<Candidate>> &Cands) {
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

  std::map<device::Slot, std::vector<sat::Lit>> SlotUsers;
  std::map<device::Slot, size_t> SlotFirstCluster;
  for (size_t I = 0; I < Clusters.size(); ++I) {
    const Cluster &C = Clusters[I];
    std::vector<sat::Lit> Lits;
    for (const Candidate &Cand : Cands[I]) {
      sat::Var V = S.newVar();
      Lits.push_back(sat::Lit(V));
      for (const device::Slot &Slot : Cand.Slots) {
        SlotUsers[Slot].push_back(sat::Lit(V));
        SlotFirstCluster.try_emplace(Slot, I);
      }
    }
    // The cluster's row span mirrors its relative adjacency constraints
    // (e.g. a cascade chain at (x, y) .. (x, y+k)).
    int64_t MinDy = 0, MaxDy = 0;
    for (const Member &M : C.Members)
      if (M.Y.isVar()) {
        MinDy = std::min(MinDy, M.Y.offset());
        MaxDy = std::max(MaxDy, M.Y.offset());
      }
    std::string Rep = Prog.body()[C.Members.front().BodyIndex].dst();
    std::string Detail =
        "cluster of " + std::to_string(C.Members.size()) + " " +
        std::string(ir::resourceName(C.Prim)) + " instruction(s)" +
        (MaxDy > MinDy
             ? " spanning " + std::to_string(MaxDy - MinDy + 1) + " row(s)"
             : "") +
        " must take one of " + std::to_string(Cands[I].size()) +
        " base position(s)";
    sat::Lit Sel = MakeSelector("choose-one", Rep, std::move(Detail));
    std::vector<sat::Lit> Guarded = Lits;
    Guarded.push_back(~Sel);
    S.addClause(std::move(Guarded));
    addAtMostOne(S, Lits);
  }
  for (auto &[Slot, Lits] : SlotUsers) {
    if (Lits.size() <= 1)
      continue; // a sole user can never collide
    size_t FirstCluster = SlotFirstCluster.at(Slot);
    std::string Rep =
        Prog.body()[Clusters[FirstCluster].Members.front().BodyIndex].dst();
    sat::Lit Sel = MakeSelector(
        "distinct", Rep,
        "slot " +
            std::string(ir::resourceName(Dev.columns()[Slot.X].Kind)) + "(" +
            std::to_string(Slot.X) + ", " + std::to_string(Slot.Y) +
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
  std::vector<Candidate> BestAssignment;
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
    for (const Candidate &Cand : BestAssignment)
      for (const device::Slot &S : Cand.Slots)
        P.Slots.push_back(S);
    for (const device::Slot &S : FixedSlots)
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
        .arg("fixed_clusters", static_cast<uint64_t>(FixedClusters.size()))
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
    auto UsedBounds = [&](const std::vector<Candidate> &Assignment) {
      Bounds B{0, 0};
      for (const Candidate &Cand : Assignment)
        for (const device::Slot &S : Cand.Slots) {
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
        std::vector<Candidate> Assignment;
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
    for (size_t K = 0; K < Clusters[I].Members.size(); ++K)
      SlotOf[Clusters[I].Members[K].BodyIndex] = BestAssignment[I].Slots[K];
    // Which column kind each cluster bound to, and where.
    if (Ctx.remarksEnabled() && !BestAssignment[I].Slots.empty()) {
      const device::Slot &Base = BestAssignment[I].Slots.front();
      obs::Remark(Ctx, "place", "bind")
          .instr(Prog.body()[Clusters[I].Members.front().BodyIndex].dst())
          .message("cluster of " +
                   std::to_string(Clusters[I].Members.size()) +
                   " bound to " +
                   std::string(ir::resourceName(Clusters[I].Prim)) +
                   " column " + std::to_string(Base.X) + ", base row " +
                   std::to_string(Base.Y))
          .arg("column_kind", ir::resourceName(Clusters[I].Prim))
          .arg("x", Base.X)
          .arg("y", Base.Y)
          .arg("members", static_cast<uint64_t>(Clusters[I].Members.size()));
    }
  }
  for (const Cluster &C : FixedClusters) {
    device::Slot S;
    memberSlot(C.Members[0], 0, 0, S);
    SlotOf[C.Members[0].BodyIndex] = S;
  }
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
