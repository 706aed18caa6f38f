// LocalCtx: the single-process execution context.
//
// Application drivers are written once against the Context concept
// (decl_set / decl_map / decl_dat / arg / make_loop / fetch — the op_decl_* API),
// and instantiated with either LocalCtx (this file) or dist::DistCtx (the
// rank simulator). This mirrors how a single OP2 application source runs on
// every backend.
//
// A LocalCtx holds three kinds of data, split the way OP2 splits the mesh
// (op_set, op_map, read-only geometry) from the data that evolves:
//   * the MESH PART (MeshPart): sets, maps, the renumbering permutations and
//     read-only dats (decl_mesh_dat), frozen at finalize and held by
//     shared_ptr, so many contexts — e.g. the scenarios of a hazard sweep —
//     can run over ONE copy of it;
//   * STATE: the writable dats (decl_dat) and the driver's globals, private
//     to the context; snapshot()/restore() cover exactly these dats;
//   * SCRATCH (decl_scratch_dat): dats every step writes before it reads
//     them. They own no storage: a ScratchLease borrows a buffer set from
//     the mesh part's pool for one step, so N contexts stepped by W workers
//     hold W scratch sets, not N.
// A standalone LocalCtx(cfg) runs the same code over a private mesh part and
// holds one standing scratch lease from finalize on; a context built over a
// given part leases per step (lease_scratch()).
#pragma once

#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/op2.hpp"
#include "core/snapshot.hpp"

namespace opv {

class LocalCtx;

/// The frozen, shareable half of a LocalCtx: sets, maps, the renumbering
/// permutations, read-only mesh dats (with their layouts), the scratch dat
/// shapes and the pool their storage is leased from. One context declares
/// it and freezes it at finalize(); every context later built over the
/// frozen part binds to its declarations instead of copying them. Only the
/// scratch pool changes after freezing, under its own lock.
class MeshPart {
 public:
  MeshPart() = default;
  MeshPart(const MeshPart&) = delete;
  MeshPart& operator=(const MeshPart&) = delete;

  /// True once its declaring context finalized.
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// The permutation (old declaration id -> new id) the renumbering pass
  /// applied to a set, or nullptr if the set kept its numbering.
  [[nodiscard]] const aligned_vector<idx_t>* permutation(const Set& s) const {
    const auto it = perms_.find(&s);
    return it == perms_.end() ? nullptr : &it->second;
  }

  /// Scratch buffer sets made so far: the peak number of leases held at
  /// once (buffers are reused, and freed with the part).
  [[nodiscard]] std::size_t scratch_sets() const {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    return made_;
  }

 private:
  friend class LocalCtx;
  using Buffers = std::vector<std::unique_ptr<DatBase>>;

  /// A free buffer set, or a new zeroed one when every set is leased.
  Buffers acquire_scratch() {
    {
      const std::lock_guard<std::mutex> lock(pool_mu_);
      if (!free_.empty()) {
        Buffers b = std::move(free_.back());
        free_.pop_back();
        return b;
      }
      ++made_;
    }
    Buffers b;
    b.reserve(scratch_.size());
    for (const auto& d : scratch_) b.push_back(d->make_buffer());
    return b;
  }
  void release_scratch(Buffers b) {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    free_.push_back(std::move(b));
  }

  std::deque<std::unique_ptr<Set>> sets_;
  std::deque<std::unique_ptr<Map>> maps_;
  std::deque<std::unique_ptr<DatBase>> dats_;     ///< read-only mesh dats
  std::deque<std::unique_ptr<DatBase>> scratch_;  ///< scratch shapes (no storage)
  std::map<const Set*, aligned_vector<idx_t>> perms_;  ///< old -> new, per set
  Set* primary_ = nullptr;  ///< renumbering seed (set_partition_coords)
  bool renumbered_ = false;
  bool claimed_ = false;  ///< a context is declaring into it
  bool frozen_ = false;

  mutable std::mutex pool_mu_;
  std::vector<Buffers> free_;  ///< scratch buffer sets not leased
  std::size_t made_ = 0;
};

/// Context-bound persistent loop handle: an opv::Loop whose run() executes
/// under the owning LocalCtx's CURRENT configuration — the local analog of
/// dist::Loop::run(), so drivers templated over the context concept can
/// hold `auto loop = ctx.make_loop(...)` and call loop.run() each timestep
/// on either context.
template <class Kernel, class... Args>
class CtxLoop {
 public:
  CtxLoop(LocalCtx& ctx, Kernel kernel, const char* name, const Set& set, Args... args)
      : ctx_(&ctx), loop_(std::move(kernel), name, set, args...) {}

  /// Execute under the context's current configuration.
  void run();

  /// The underlying engine handle (plan/tuner introspection).
  [[nodiscard]] Loop<Kernel, Args...>& inner() { return loop_; }

 private:
  LocalCtx* ctx_;
  Loop<Kernel, Args...> loop_;
};

class LocalCtx {
 public:
  using SetHandle = Set*;
  using MapHandle = Map*;
  template <class T>
  using DatHandle = Dat<T>*;
  template <class T, int N>
  using FixedDatHandle = FixedDat<T, N>*;

  /// A standalone context over a private mesh part.
  explicit LocalCtx(ExecConfig cfg = {}) : LocalCtx(std::make_shared<MeshPart>(), cfg) {
    lease_per_step_ = false;
  }

  /// A context over `mesh`. A fresh part is declared (and frozen at
  /// finalize) by this context; over a frozen part, decl_set / decl_map /
  /// decl_mesh_dat / decl_scratch_dat bind to its declarations, which must
  /// be repeated in the same order, and ignore their data. Scratch dats get
  /// storage only inside a lease_scratch() scope.
  LocalCtx(std::shared_ptr<MeshPart> mesh, ExecConfig cfg)
      : cfg_(cfg), mesh_(std::move(mesh)) {
    OPV_REQUIRE(mesh_ != nullptr, "LocalCtx: null mesh part");
    replay_ = mesh_->frozen();
    if (!replay_) {
      OPV_REQUIRE(!mesh_->claimed_, "LocalCtx: another context is still declaring this mesh "
                                    "part; share it once that context is finalized");
      mesh_->claimed_ = true;
    }
  }

  // Loop handles and scratch leases pin pointers into the context.
  LocalCtx(const LocalCtx&) = delete;
  LocalCtx& operator=(const LocalCtx&) = delete;

  ExecConfig& config() { return cfg_; }
  const ExecConfig& config() const { return cfg_; }

  /// The mesh part this context runs over (share it with contexts built
  /// later once this one is finalized).
  [[nodiscard]] const std::shared_ptr<MeshPart>& mesh_part() const { return mesh_; }

  /// True when this context was built over an already-frozen mesh part, so
  /// its mesh declarations bind to existing ones and their data is unused —
  /// a driver may skip deriving it.
  [[nodiscard]] bool shares_frozen_mesh() const { return replay_; }

  SetHandle decl_set(const std::string& name, idx_t size) {
    if (replay_) {
      Set* s = replay(mesh_->sets_, next_set_, name, "decl_set");
      OPV_REQUIRE(s->size() == size, "LocalCtx::decl_set('" << name << "'): size " << size
                                                            << " but the shared mesh part has "
                                                            << s->size());
      return s;
    }
    require_not_renumbered("decl_set");
    mesh_->sets_.push_back(std::make_unique<Set>(name, size));
    return mesh_->sets_.back().get();
  }

  /// Partition hint; locally it only records the primary set — the default
  /// seed for the opt-in renumbering pass (set_renumber). The optional
  /// coordinate dimensionality matches DistCtx's signature (ignored here).
  void set_partition_coords(SetHandle s, const double*, int = 2) {
    if (!replay_) mesh_->primary_ = s;
  }

  /// Request a memory layout for one dataset — the context-concept spelling
  /// shared with DistCtx::set_layout, so drivers templated over the context
  /// pick layouts the same way on both. Locally it forwards to the dat.
  template <detail::DatLike D>
  void set_layout(D* d, Layout l) {
    d->set_layout(l);
  }

  MapHandle decl_map(const std::string& name, SetHandle from, SetHandle to, int dim,
                     aligned_vector<idx_t> data) {
    if (replay_) {
      Map* m = replay(mesh_->maps_, next_map_, name, "decl_map");
      OPV_REQUIRE(&m->from() == from && &m->to() == to && m->dim() == dim,
                  "LocalCtx::decl_map('" << name
                                         << "'): sets or dim differ from the shared mesh part's");
      return m;
    }
    require_not_renumbered("decl_map");
    mesh_->maps_.push_back(std::make_unique<Map>(name, *from, *to, dim, std::move(data)));
    return mesh_->maps_.back().get();
  }

  /// State dats: private to this context, and what snapshot() captures.
  /// `init` becomes the dat's storage (pass an rvalue to avoid a copy).
  template <class T>
  DatHandle<T> decl_dat(const std::string& name, SetHandle set, int dim,
                        aligned_vector<T> init) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<Dat<T>>(name, *set, dim, std::move(init)));
    return finish_decl_dat<Dat<T>>(dats_);
  }
  template <class T>
  DatHandle<T> decl_dat(const std::string& name, SetHandle set, int dim) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<Dat<T>>(name, *set, dim));
    return finish_decl_dat<Dat<T>>(dats_);
  }

  /// Statically-dimensioned declaration: `decl_dat<double, 4>(...)` yields a
  /// FixedDat handle, so every `ctx.arg<A>(d, ...)` built from it carries a
  /// compile-time arity (fully-unrolled gathers with literal strides) with
  /// no per-argument Dim spelling at the loop sites.
  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set,
                                aligned_vector<T> init) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<FixedDat<T, N>>(name, *set, std::move(init)));
    return finish_decl_dat<FixedDat<T, N>>(dats_);
  }
  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<FixedDat<T, N>>(name, *set));
    return finish_decl_dat<FixedDat<T, N>>(dats_);
  }

  /// Read-only mesh data (geometry derived from the mesh): lives on the
  /// mesh part, shared by every context over it, never checkpointed. Only
  /// READ arguments may be built on it (opv::arg throws otherwise).
  template <class T, int N>
  FixedDatHandle<T, N> decl_mesh_dat(const std::string& name, SetHandle set,
                                     aligned_vector<T> init) {
    if (replay_) {
      auto* d = dynamic_cast<FixedDat<T, N>*>(replay(mesh_->dats_, next_mesh_dat_, name,
                                                     "decl_mesh_dat"));
      OPV_REQUIRE(d != nullptr && &d->set() == set,
                  "LocalCtx::decl_mesh_dat('" << name
                                              << "'): type or set differs from the shared "
                                                 "mesh part's");
      return d;
    }
    require_not_renumbered("decl_mesh_dat");
    mesh_->dats_.push_back(std::make_unique<FixedDat<T, N>>(name, *set, std::move(init)));
    mesh_->dats_.back()->set_read_only();
    return finish_decl_dat<FixedDat<T, N>>(mesh_->dats_);
  }

  /// Scratch: a dat every step writes before reading (or, for INC targets,
  /// reads only after zeroing it back, so a buffer is all zero between
  /// steps). It owns no storage; lease_scratch() swaps a pooled buffer in.
  /// Declare scratch dats before finalize.
  template <class T, int N>
  FixedDatHandle<T, N> decl_scratch_dat(const std::string& name, SetHandle set) {
    OPV_REQUIRE(!layouts_applied_, "LocalCtx::decl_scratch_dat('"
                                       << name
                                       << "'): scratch dats must be declared before finalize "
                                          "/ the first loop execution");
    auto d = std::make_unique<FixedDat<T, N>>(name, *set, scratch_storage);
    if (replay_) {
      std::size_t i = scratch_.size();
      const auto* shape =
          dynamic_cast<const FixedDat<T, N>*>(replay(mesh_->scratch_, i, name, "decl_scratch_dat"));
      OPV_REQUIRE(shape != nullptr && &shape->set() == set,
                  "LocalCtx::decl_scratch_dat('" << name
                                                 << "'): type or set differs from the shared "
                                                    "mesh part's");
      d->set_layout(shape->layout());  // pooled buffers are made in this layout
      d->apply_layout();
    } else {
      require_not_renumbered("decl_scratch_dat");
      mesh_->scratch_.push_back(std::make_unique<FixedDat<T, N>>(name, *set, scratch_storage));
    }
    scratch_.push_back(std::move(d));
    return static_cast<FixedDat<T, N>*>(scratch_.back().get());
  }

  /// Opt into the context-level renumbering pass (core/reorder.hpp):
  /// finalize() then renumbers around the primary set declared through
  /// set_partition_coords. Must be set before finalize().
  void set_renumber(bool on) {
    OPV_REQUIRE(!finalized_, "LocalCtx::set_renumber: context already finalized");
    renumber_on_finalize_ = on;
  }

  /// Context-level layout default (core/layout.hpp): applied at finalize (or
  /// the first loop execution) to every multi-component dat that did not get
  /// an explicit set_layout. Pair with default_layout(backend) to follow the
  /// per-backend heuristic: `ctx.set_default_layout(default_layout(be))`.
  /// Over a frozen mesh part it reaches the state dats only.
  void set_default_layout(Layout l) {
    OPV_REQUIRE(!layouts_applied_,
                "LocalCtx::set_default_layout: layouts already materialized "
                "(finalize / first loop execution)");
    default_layout_ = l;
    have_default_layout_ = true;
  }

  /// Locally finalize() applies the opt-in renumbering pass and then
  /// materializes the per-dat layout policy (renumber permutes AoS rows, so
  /// it must run first), freezing the mesh part; the distributed context
  /// additionally partitions.
  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    if (renumber_on_finalize_) {
      OPV_REQUIRE(mesh_->primary_ != nullptr,
                  "LocalCtx::finalize: set_renumber(true) requires a primary set "
                  "(call set_partition_coords)");
      renumber(mesh_->primary_);
    }
    materialize_layouts();
    mesh_->frozen_ = true;
    hold_scratch();
  }

  /// Apply the context-level renumbering pass around `seed` (paper sections
  /// 6.2/6.4; core/reorder.hpp): every declared Map is row-permuted and
  /// target-relabeled, every Dat row-permuted, in place. Legal once, after
  /// all declarations and BEFORE any loop executes — a loop handle pins its
  /// coloring plan against the map contents it first ran with, so
  /// renumbering underneath it would leave a stale (racy) schedule. Loops
  /// run through this context's API are tracked and rejected here; fetch()
  /// keeps returning values in the original declaration order. A context
  /// over a frozen mesh part inherits the part's numbering instead.
  void renumber(SetHandle seed) {
    OPV_REQUIRE(!replay_, "LocalCtx::renumber: the shared mesh part is frozen; it keeps the "
                          "numbering its declaring context chose");
    OPV_REQUIRE(!mesh_->renumbered_, "LocalCtx::renumber: context already renumbered");
    OPV_REQUIRE(!loops_ran_,
                "LocalCtx::renumber: a loop already executed on this context; renumber "
                "before the first loop (its pinned coloring plan would go stale)");
    OPV_REQUIRE(!layouts_applied_,
                "LocalCtx::renumber: layouts already materialized; renumber permutes AoS "
                "rows, so it must precede finalize / the first loop execution");
    mesh_->renumbered_ = true;

    std::map<const Set*, int> index;
    std::vector<idx_t> sizes;
    for (const auto& s : mesh_->sets_) {
      index[s.get()] = static_cast<int>(sizes.size());
      sizes.push_back(s->size());
    }
    std::vector<reorder::MapView> views;
    views.reserve(mesh_->maps_.size());
    for (const auto& m : mesh_->maps_)
      views.push_back({index.at(&m->from()), index.at(&m->to()), m->dim(), m->mutable_data()});

    const reorder::Permutations p = reorder::compute(sizes, views, index.at(seed));
    reorder::apply_to_maps(p, views, sizes);
    for (const auto* dats : {&mesh_->dats_, &dats_}) {
      for (const auto& d : *dats) {
        const int s = index.at(&d->set());
        if (!p.identity(s)) reorder::permute_rows_bytes(p.of(s), d->raw(), d->elem_bytes());
      }
    }
    for (const auto& s : mesh_->sets_) {
      const int i = index.at(s.get());
      if (!p.identity(i)) mesh_->perms_.emplace(s.get(), p.of(i));
    }
  }

  /// The permutation (old declaration id -> new id) the renumbering pass
  /// applied to a set, or nullptr if the set kept its numbering.
  [[nodiscard]] const aligned_vector<idx_t>* permutation(SetHandle s) const {
    return mesh_->permutation(*s);
  }

  /// Every non-identity permutation applied, keyed by set name (test and
  /// tooling introspection — e.g. replaying the pass as a manual relayout).
  [[nodiscard]] std::map<std::string, aligned_vector<idx_t>> applied_permutations() const {
    std::map<std::string, aligned_vector<idx_t>> out;
    for (const auto& [set, perm] : mesh_->perms_) out.emplace(set->name(), perm);
    return out;
  }

  // Typed argument builders: the access mode and the arity Dim travel as
  // template parameters and forward to opv::arg, so the same rules hold:
  // `ctx.arg<opv::READ, 4>(d, ...)` checks Dim against the dat's declared
  // dim, a FixedDat handle deduces it (`ctx.arg<opv::READ>(fixed, ...)`).
  template <AccessMode A, int... Dim, detail::DatLike D>
  auto arg(D* d, int idx, MapHandle m) -> decltype(opv::arg<A, Dim...>(*d, idx, *m)) {
    return opv::arg<A, Dim...>(*d, idx, *m);
  }
  template <AccessMode A, int... Dim, detail::DatLike D>
  auto arg(D* d) -> decltype(opv::arg<A, Dim...>(*d)) {
    return opv::arg<A, Dim...>(*d);
  }
  template <AccessMode A, class T>
  auto arg_gbl(T* p, int dim) {
    return opv::arg_gbl<A>(p, dim);
  }

  /// Record that loops are about to execute outside the context's own
  /// CtxLoop::run() path — e.g. a LoopChain driving CtxLoop inner()
  /// handles directly. Closes the renumbering window exactly like a tracked
  /// loop execution would (the chain pins tile plans against map contents),
  /// and materializes the layout policy so access paths never see a dat
  /// whose requested layout was silently left unapplied.
  void note_loops_ran() {
    if (loops_ran_) return;
    materialize_layouts();
    loops_ran_ = true;
    hold_scratch();
  }

  /// Build a persistent loop handle bound to this context (the Context-
  /// concept spelling shared with DistCtx::make_loop): conflict analysis at
  /// construction, plan and stats slot pinned on first run, and run()
  /// follows the context's current configuration.
  template <class Kernel, class... Args>
  CtxLoop<Kernel, Args...> make_loop(Kernel k, const char* name, SetHandle set, Args... args) {
    return CtxLoop<Kernel, Args...>(*this, std::move(k), name, *set, args...);
  }

  /// One scratch buffer set, swapped into this context's scratch dats for
  /// the lease's lifetime (one step) and returned to the mesh part's pool
  /// after. A buffer set released while an exception unwinds is zeroed, so
  /// a step that died half-way leaves no partial INC sums for the next
  /// lease. Leasing while a lease is held (or with no scratch dats) is a
  /// no-op.
  class ScratchLease {
   public:
    explicit ScratchLease(LocalCtx& ctx) {
      if (ctx.scratch_.empty() || ctx.leased_) return;
      OPV_REQUIRE(ctx.scratch_.size() == ctx.mesh_->scratch_.size(),
                  "LocalCtx::lease_scratch: " << ctx.scratch_.size() << " of the mesh part's "
                                              << ctx.mesh_->scratch_.size()
                                              << " scratch dats are declared");
      ctx.materialize_layouts();  // buffers are made in the final layouts
      bufs_ = ctx.mesh_->acquire_scratch();
      for (std::size_t i = 0; i < bufs_.size(); ++i) ctx.scratch_[i]->swap_storage(*bufs_[i]);
      ctx.leased_ = true;
      ctx_ = &ctx;
      unwinding_ = std::uncaught_exceptions();
    }
    ~ScratchLease() {
      if (ctx_ == nullptr) return;
      for (std::size_t i = 0; i < bufs_.size(); ++i) ctx_->scratch_[i]->swap_storage(*bufs_[i]);
      ctx_->leased_ = false;
      if (std::uncaught_exceptions() > unwinding_)
        for (const auto& b : bufs_) b->zero();
      ctx_->mesh_->release_scratch(std::move(bufs_));
    }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;

   private:
    LocalCtx* ctx_ = nullptr;  ///< null: nothing leased
    MeshPart::Buffers bufs_;
    int unwinding_ = 0;  ///< std::uncaught_exceptions() at acquisition
  };

  /// Lease scratch storage for one step: `const auto lease = ctx.lease_scratch();`.
  [[nodiscard]] ScratchLease lease_scratch() { return ScratchLease(*this); }

  /// Copy a dataset's owned values into an array in the ORIGINAL declaration
  /// order and AoS component order (renumbering AND relayout, when applied,
  /// are inverted here — the caller never observes the internal numbering or
  /// the physical layout).
  template <class T>
  void fetch(DatHandle<T> d, aligned_vector<T>& out) const {
    OPV_REQUIRE(d->size() != 0 || d->set().size() == 0,
                "LocalCtx::fetch: scratch dat '" << d->name()
                                                 << "' has no storage outside a scratch lease");
    const aligned_vector<idx_t>* perm = mesh_->permutation(d->set());
    if (perm == nullptr && d->layout() == Layout::AoS) {
      out.assign(d->data(), d->data() + static_cast<std::size_t>(d->set().size()) * d->dim());
      return;
    }
    const int dim = d->dim();
    out.resize(static_cast<std::size_t>(d->set().size()) * dim);
    for (idx_t e = 0; e < d->set().size(); ++e) {
      const idx_t src = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
      for (int c = 0; c < dim; ++c)
        out[static_cast<std::size_t>(e) * dim + c] = d->at(src, c);
    }
  }

  /// Append one "dat/NNN/<name>" section per declared STATE dat to `out`
  /// (mesh data never changes and scratch is rewritten every step, so
  /// neither is captured), each holding the dat's values in the ORIGINAL
  /// declaration order and AoS component order (the canonical form fetch()
  /// returns: renumbering and physical layout are inverted through the same
  /// permutation/offset machinery). Snapshots are therefore portable across
  /// contexts that made different renumber/layout choices for the same
  /// declarations, and restore() is exact — byte-identical values
  /// round-trip bitwise.
  void snapshot(Checkpoint& out) const {
    int i = 0;
    for (const auto& d : dats_) {
      const idx_t rows = d->set().size();
      const int dim = d->dim();
      const std::size_t vb = d->elem_bytes() / static_cast<std::size_t>(dim);
      ByteWriter w;
      w.put<std::int64_t>(rows);
      w.put<std::int32_t>(dim);
      w.put<std::uint32_t>(static_cast<std::uint32_t>(vb));
      const auto* perm = mesh_->permutation(d->set());
      const auto* base = static_cast<const unsigned char*>(d->raw());
      if (perm == nullptr && d->layout() == Layout::AoS) {
        w.put_bytes(base, static_cast<std::size_t>(rows) * d->elem_bytes());
      } else {
        for (idx_t e = 0; e < rows; ++e) {
          const idx_t src = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
          for (int c = 0; c < dim; ++c)
            w.put_bytes(base + layout_offset(d->layout(), src, c, dim, d->plane()) * vb, vb);
        }
      }
      out.add(dat_section_name(i++, d->name()), w.take());
    }
  }

  /// Write a snapshot's values back into the declared state dats, through
  /// the context's CURRENT permutation and physical layout. The snapshot
  /// must come from an identically-declared context (same state dats in
  /// order, same shapes) — any mismatch throws opv::Error instead of
  /// silently writing misaligned bytes. Maps, plans, and loop handles are
  /// untouched: derived schedule state keys on mesh topology, which a
  /// checkpoint never changes.
  void restore(const Checkpoint& in) {
    OPV_REQUIRE(in.sections.size() >= dats_.size(),
                "LocalCtx::restore: checkpoint has " << in.sections.size() << " sections but "
                                                     << dats_.size() << " dats are declared");
    int i = 0;
    for (const auto& d : dats_) {
      const std::string name = dat_section_name(i, d->name());
      const Checkpoint::Section* s = in.find(name);
      OPV_REQUIRE(s != nullptr, "LocalCtx::restore: checkpoint is missing section '" << name << "'");
      const idx_t rows = d->set().size();
      const int dim = d->dim();
      const std::size_t vb = d->elem_bytes() / static_cast<std::size_t>(dim);
      ByteReader r(s->bytes, name);
      const auto srows = r.get<std::int64_t>();
      const auto sdim = r.get<std::int32_t>();
      const auto svb = r.get<std::uint32_t>();
      OPV_REQUIRE(srows == rows && sdim == dim && svb == vb,
                  "LocalCtx::restore: section '"
                      << name << "' shape mismatch (checkpoint " << srows << "x" << sdim << "x"
                      << svb << " vs declared " << rows << "x" << dim << "x" << vb << ")");
      const auto* perm = mesh_->permutation(d->set());
      auto* base = static_cast<unsigned char*>(d->raw());
      if (perm == nullptr && d->layout() == Layout::AoS) {
        r.get_bytes(base, static_cast<std::size_t>(rows) * d->elem_bytes());
      } else {
        for (idx_t e = 0; e < rows; ++e) {
          const idx_t dst = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
          for (int c = 0; c < dim; ++c)
            r.get_bytes(base + layout_offset(d->layout(), dst, c, dim, d->plane()) * vb, vb);
        }
      }
      ++i;
    }
  }

 private:
  template <class Kernel, class... Args>
  friend class CtxLoop;  // marks loops_ran_ on run()

  /// Stable checkpoint section name: declaration index + dat name.
  static std::string dat_section_name(int index, const std::string& name) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "dat/%03d/", index);
    return buf + name;
  }

  /// The next declaration of a frozen mesh part, which must carry `name`.
  template <class T>
  static T* replay(const std::deque<std::unique_ptr<T>>& decls, std::size_t& next,
                   const std::string& name, const char* what) {
    OPV_REQUIRE(next < decls.size() && decls[next]->name() == name,
                "LocalCtx::" << what << "('" << name << "'): the shared mesh part declares "
                             << (next < decls.size() ? "'" + decls[next]->name() + "'"
                                                     : std::string("nothing more"))
                             << " here; repeat its declarations in order");
    return decls[next++].get();
  }

  void require_not_renumbered(const char* what) const {
    OPV_REQUIRE(replay_ || !mesh_->renumbered_,
                "LocalCtx::" << what
                             << ": declarations are closed once the context is "
                                "renumbered (declare everything first)");
  }

  /// Return the just-declared dat as its concrete type. Over a renumbered
  /// shared part, state rows arrive in declaration order and are permuted
  /// here. A dat declared after layout materialization stays AoS with its
  /// layout frozen immediately, so a late set_layout fails loudly instead
  /// of silently never applying.
  template <class D>
  D* finish_decl_dat(const std::deque<std::unique_ptr<DatBase>>& dats) {
    D* d = static_cast<D*>(dats.back().get());
    if (replay_)
      if (const auto* p = mesh_->permutation(d->set()))
        reorder::permute_rows_bytes(*p, d->raw(), d->elem_bytes());
    if (layouts_applied_) d->freeze_layout();
    return d;
  }

  /// One-shot layout materialization: resolve the context default onto
  /// non-explicit multi-component dats, then physically convert and freeze
  /// every dat (the mesh part's, and the scratch shapes its pool builds
  /// from, only while this context declares it). Runs at finalize() or, for
  /// drivers that never finalize, at the first tracked loop execution.
  void materialize_layouts() {
    if (layouts_applied_) return;
    layouts_applied_ = true;
    const auto apply = [this](DatBase& d) {
      if (have_default_layout_ && !d.layout_explicit() && d.dim() > 1)
        d.set_layout(default_layout_);
      d.apply_layout();
    };
    if (!replay_) {
      for (const auto& d : mesh_->dats_) apply(*d);
      for (std::size_t i = 0; i < scratch_.size(); ++i) {
        apply(*scratch_[i]);
        mesh_->scratch_[i]->set_layout(scratch_[i]->layout());
        mesh_->scratch_[i]->apply_layout();
      }
    }
    for (const auto& d : dats_) apply(*d);
  }

  /// A standalone context keeps one scratch lease from its first
  /// finalize / loop execution on.
  void hold_scratch() {
    if (!lease_per_step_ && !standing_) standing_.emplace(*this);
  }

  ExecConfig cfg_;
  std::shared_ptr<MeshPart> mesh_;
  std::deque<std::unique_ptr<DatBase>> dats_;     ///< state dats
  std::deque<std::unique_ptr<DatBase>> scratch_;  ///< scratch dats (leased storage)
  bool replay_ = false;          ///< built over a frozen mesh part
  bool lease_per_step_ = true;   ///< false: standalone, one standing lease
  bool leased_ = false;          ///< scratch storage is swapped in
  std::size_t next_set_ = 0, next_map_ = 0, next_mesh_dat_ = 0;  ///< replay cursors
  bool renumber_on_finalize_ = false;
  bool finalized_ = false;
  bool loops_ran_ = false;  ///< a loop executed: renumbering is no longer legal
  Layout default_layout_ = Layout::AoS;
  bool have_default_layout_ = false;
  bool layouts_applied_ = false;  ///< layout policy materialized and frozen
  std::optional<ScratchLease> standing_;  ///< last member: released first
};

template <class Kernel, class... Args>
void CtxLoop<Kernel, Args...>::run() {
  ctx_->note_loops_ran();
  OPV_REQUIRE(ctx_->leased_ || ctx_->scratch_.empty(),
              "loop '" << loop_.name()
                       << "': the context's scratch dats have no storage outside a "
                          "lease_scratch() scope");
  loop_.run(ctx_->config());
}

}  // namespace opv
