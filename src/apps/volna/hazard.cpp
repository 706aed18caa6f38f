#include "apps/volna/hazard.hpp"

#include <utility>

#include "core/guard.hpp"

namespace opv::volna {

std::vector<Scenario> hazard_sweep(int n, const Scenario& base) {
  std::vector<Scenario> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Fan amplitude over [0.5, 1.5]x base and width over [0.8, 1.2]x base,
    // phase-shifted so no two scenarios coincide; fixed arithmetic keeps
    // the sweep reproducible.
    const double ta = n > 1 ? static_cast<double>(i) / (n - 1) : 0.5;
    const double tw = n > 1 ? static_cast<double>((i * 7) % n) / (n - 1) : 0.5;
    Scenario sc = base;
    sc.amp = base.amp * (0.5 + ta);
    sc.width = base.width * (0.8 + 0.4 * tw);
    out.push_back(sc);
  }
  return out;
}

Backend parse_backend(const std::string& name) {
  if (name == "seq") return Backend::Seq;
  if (name == "openmp") return Backend::OpenMP;
  if (name == "autovec") return Backend::AutoVec;
  if (name == "simt") return Backend::Simt;
  return Backend::Simd;
}

HazardInstance::HazardInstance(const mesh::UnstructuredMesh& m, const Scenario& sc,
                               const ExecConfig& cfg, bool chain)
    : HazardInstance(std::make_shared<MeshPart>(), m, sc, cfg, chain) {}

HazardInstance::HazardInstance(std::shared_ptr<MeshPart> part, const mesh::UnstructuredMesh& m,
                               const Scenario& sc, const ExecConfig& cfg, bool chain)
    : sc_(sc), ctx_(std::move(part), cfg) {
  app_ = std::make_unique<Volna<float, LocalCtx>>(ctx_, m, sc.depth, sc.amp, sc.width, chain);
  vol0_ = app_->volume();
}

bool HazardInstance::healthy() { return guard::check_finite(*app_->state_dat()); }

Checkpoint HazardInstance::checkpoint() {
  Checkpoint c;
  ctx_.snapshot(c);
  // The only evolving state outside the dats: Volna's step globals (the
  // broadcast dt and the reduction scratch it is read back from).
  const auto g = app_->step_globals();
  ByteWriter w;
  w.put<double>(g.dt);
  w.put<double>(static_cast<double>(g.dtmin));
  w.put<double>(static_cast<double>(g.dt_arg));
  c.add("globals/volna", w.take());
  return c;
}

void HazardInstance::restore(const Checkpoint& c) {
  ctx_.restore(c);
  const Checkpoint::Section* s = c.find("globals/volna");
  OPV_REQUIRE(s != nullptr, "HazardInstance::restore: checkpoint lacks globals/volna section");
  ByteReader r(s->bytes, "globals/volna");
  Volna<float, LocalCtx>::StepGlobals g;
  g.dt = r.get<double>();
  g.dtmin = static_cast<float>(r.get<double>());
  g.dt_arg = static_cast<float>(r.get<double>());
  app_->set_step_globals(g);
}

serve::InstanceFactory hazard_factory(const mesh::UnstructuredMesh& m,
                                      std::vector<Scenario> sweep, ExecConfig cfg, bool chain) {
  OPV_REQUIRE(!sweep.empty(), "hazard_factory: empty scenario sweep");
  // Copy the mesh into the closure: instances may be added after the
  // caller's mesh goes out of scope, and factories outlive add_instances.
  auto mesh = std::make_shared<mesh::UnstructuredMesh>(m);
  auto scenarios = std::make_shared<std::vector<Scenario>>(std::move(sweep));
  // Empty until the first instance declares and freezes it.
  auto part = std::make_shared<MeshPart>();
  return [mesh, scenarios, part, cfg, chain](int id) -> std::unique_ptr<serve::Instance> {
    const Scenario& sc = (*scenarios)[static_cast<std::size_t>(id) % scenarios->size()];
    return std::make_unique<HazardInstance>(part, *mesh, sc, cfg, chain);
  };
}

}  // namespace opv::volna
