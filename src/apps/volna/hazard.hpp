// Volna hazard-sweep building blocks: the ensemble-serving face of the
// Volna app (serve/ensemble.hpp). Probabilistic tsunami hazard assessment
// runs MANY scenarios — same bathymetry, different source parameters — and
// asks for the distribution of outcomes; here each scenario wraps one
// Volna driver as a serve::Instance so an opv::serve::Ensemble can
// multiplex scenario timesteps over one worker pool.
//
// The per-step logic (including numerical_flux's dt-reduction reset and
// the dt read-back/rebroadcast) lives in exactly one place — Volna's
// step closure (volna.hpp build_loops) — and HazardInstance::step() simply
// invokes it, so the ensemble driver and the solo example cannot drift.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/volna/volna.hpp"
#include "core/context.hpp"
#include "serve/ensemble.hpp"

namespace opv::volna {

/// One hazard scenario: the initial-condition parameters of a Volna run
/// (still-water depth, Gaussian hump amplitude and width).
struct Scenario {
  double depth = 1.0;
  double amp = 0.25;
  double width = 0.05;
};

/// A deterministic n-scenario parameter sweep around `base`: amplitudes
/// and widths fan out over fixed factor ranges (no RNG — hazard curves
/// must be reproducible run to run).
std::vector<Scenario> hazard_sweep(int n, const Scenario& base = {});

/// Parse a CLI backend name: "seq", "openmp", "autovec", "simt", or "simd"
/// (anything else falls back to Simd, matching the examples' historic
/// default). Shared by volna_tsunami, volna_hazard and the benches.
Backend parse_backend(const std::string& name);

/// One Volna scenario wrapped as an ensemble instance: owns its LocalCtx
/// (per-instance ExecConfig lives there) and the Volna driver with its
/// pinned loop handles. The context runs over a MeshPart (core/context.hpp)
/// that may be shared with other scenarios on the same mesh: the instance
/// itself holds only the scenario state (`values` and the step globals),
/// and leases Volna's scratch dats from the part's pool for each step. The
/// referenced mesh is only read at construction.
///
/// Checkpointable: a checkpoint is the context snapshot (its state dat,
/// `values`, in declaration-order AoS bytes) plus Volna's step globals (dt /
/// dtmin / dt_arg), which is the complete evolving state — restore + replay
/// is bitwise-identical on Seq. healthy() scans the state vector for
/// NaN/Inf.
class HazardInstance final : public serve::Checkpointable {
 public:
  /// A scenario over a private mesh part.
  HazardInstance(const mesh::UnstructuredMesh& m, const Scenario& sc, const ExecConfig& cfg,
                 bool chain = false);
  /// A scenario over `part`: declared by this instance if fresh, shared if
  /// already frozen (then `m` must be the mesh it was declared from).
  HazardInstance(std::shared_ptr<MeshPart> part, const mesh::UnstructuredMesh& m,
                 const Scenario& sc, const ExecConfig& cfg, bool chain = false);

  /// One timestep through Volna's own step closure, on leased scratch.
  void step() override {
    const auto lease = ctx_.lease_scratch();
    app_->run(1);
  }

  [[nodiscard]] bool healthy() override;
  [[nodiscard]] Checkpoint checkpoint() override;
  void restore(const Checkpoint& c) override;

  /// Current state vector (global cell order).
  [[nodiscard]] aligned_vector<float> state() { return app_->fetch_state(); }
  /// Current total water volume (the conservation invariant).
  [[nodiscard]] double volume() { return app_->volume(); }
  [[nodiscard]] double initial_volume() const { return vol0_; }
  [[nodiscard]] double last_dt() const { return app_->last_dt(); }
  [[nodiscard]] idx_t ncells() const { return app_->ncells(); }
  [[nodiscard]] const Scenario& scenario() const { return sc_; }
  /// The mesh part this scenario runs over.
  [[nodiscard]] const std::shared_ptr<MeshPart>& mesh_part() const { return ctx_.mesh_part(); }

 private:
  Scenario sc_;
  LocalCtx ctx_;  ///< declared before app_: the driver pins handles into it
  std::unique_ptr<Volna<float, LocalCtx>> app_;
  double vol0_ = 0.0;
};

/// Instance factory over one shared mesh: instance id -> sweep[id % n].
/// The mesh and sweep are captured by value-shared state, so `m` need not
/// outlive the call. Every instance runs over ONE MeshPart: the first
/// instance built declares and freezes it (inside the first
/// add_instances(), not here), later ones bind to it.
serve::InstanceFactory hazard_factory(const mesh::UnstructuredMesh& m,
                                      std::vector<Scenario> sweep, ExecConfig cfg,
                                      bool chain = false);

}  // namespace opv::volna
