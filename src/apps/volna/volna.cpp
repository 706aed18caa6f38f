#include "apps/volna/volna.hpp"

#include <cmath>
#include <mutex>

#include "core/kernel_info.hpp"

namespace opv::volna {

void register_kernel_info() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& reg = KernelRegistry::instance();
    // Values-per-element counts as in the paper's Table III.
    reg.add({"RK_1", 8, 12, 0, 0, 12, "Direct"});
    reg.add({"RK_2", 12, 8, 0, 0, 16, "Direct"});
    reg.add({"sim_1", 4, 4, 0, 0, 0, "Direct copy"});
    reg.add({"compute_flux", 4, 6, 8, 0, 154, "Gather, direct write"});
    reg.add({"numerical_flux", 1, 4, 6, 0, 9, "Gather, reduction"});
    reg.add({"space_disc", 8, 0, 10, 8, 23, "Gather, scatter"});
  });
}

aligned_vector<double> edge_geometry(const mesh::UnstructuredMesh& m) {
  aligned_vector<double> geom(static_cast<std::size_t>(m.nedges) * 4, 0.0);
  const int k = m.nodes_per_cell;
  auto centroid = [&](idx_t c, double& cx, double& cy) {
    const idx_t n0 = m.cell_nodes[static_cast<std::size_t>(c) * k];
    const double x0 = m.node_xy[2 * static_cast<std::size_t>(n0)];
    const double y0 = m.node_xy[2 * static_cast<std::size_t>(n0) + 1];
    double sx = 0.0, sy = 0.0;
    for (int j = 0; j < k; ++j) {
      const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * k + j];
      sx += m.wrap_dx(m.node_xy[2 * static_cast<std::size_t>(n)] - x0);
      sy += m.wrap_dy(m.node_xy[2 * static_cast<std::size_t>(n) + 1] - y0);
    }
    cx = x0 + sx / k;
    cy = y0 + sy / k;
  };
  for (idx_t e = 0; e < m.nedges; ++e) {
    const idx_t n0 = m.edge_nodes[2 * e], n1 = m.edge_nodes[2 * e + 1];
    const double tx = m.wrap_dx(m.node_xy[2 * static_cast<std::size_t>(n1)] -
                                m.node_xy[2 * static_cast<std::size_t>(n0)]);
    const double ty = m.wrap_dy(m.node_xy[2 * static_cast<std::size_t>(n1) + 1] -
                                m.node_xy[2 * static_cast<std::size_t>(n0) + 1]);
    const double len = std::hypot(tx, ty);
    double nx = ty / len, ny = -tx / len;
    // Orient the normal from the left cell toward the right cell.
    double clx, cly, crx, cry;
    centroid(m.edge_cells[2 * e], clx, cly);
    centroid(m.edge_cells[2 * e + 1], crx, cry);
    const double dx = m.wrap_dx(crx - clx), dy = m.wrap_dy(cry - cly);
    if (nx * dx + ny * dy < 0.0) {
      nx = -nx;
      ny = -ny;
    }
    geom[4 * static_cast<std::size_t>(e)] = nx;
    geom[4 * static_cast<std::size_t>(e) + 1] = ny;
    geom[4 * static_cast<std::size_t>(e) + 2] = len;
  }
  return geom;
}

aligned_vector<double> cell_geometry(const mesh::UnstructuredMesh& m) {
  OPV_REQUIRE(m.nodes_per_cell == 3, "cell_geometry: triangle meshes only");
  aligned_vector<double> geom(static_cast<std::size_t>(m.ncells) * 2, 0.0);
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t a = m.cell_nodes[3 * static_cast<std::size_t>(c)];
    const idx_t b = m.cell_nodes[3 * static_cast<std::size_t>(c) + 1];
    const idx_t d = m.cell_nodes[3 * static_cast<std::size_t>(c) + 2];
    const double ax = m.node_xy[2 * static_cast<std::size_t>(a)];
    const double ay = m.node_xy[2 * static_cast<std::size_t>(a) + 1];
    const double bx = ax + m.wrap_dx(m.node_xy[2 * static_cast<std::size_t>(b)] - ax);
    const double by = ay + m.wrap_dy(m.node_xy[2 * static_cast<std::size_t>(b) + 1] - ay);
    const double dx = ax + m.wrap_dx(m.node_xy[2 * static_cast<std::size_t>(d)] - ax);
    const double dy = ay + m.wrap_dy(m.node_xy[2 * static_cast<std::size_t>(d) + 1] - ay);
    const double area = 0.5 * std::abs((bx - ax) * (dy - ay) - (dx - ax) * (by - ay));
    geom[2 * static_cast<std::size_t>(c)] = area;
    geom[2 * static_cast<std::size_t>(c) + 1] = 1.0 / area;
  }
  return geom;
}

template <class Real>
aligned_vector<Real> initial_state(const mesh::UnstructuredMesh& m, double depth, double amp,
                                   double width) {
  aligned_vector<Real> u(static_cast<std::size_t>(m.ncells) * 4, Real(0));
  const double lx = m.periodic ? m.period_x : 1.0;
  const double ly = m.periodic ? m.period_y : 1.0;
  const double x0 = 0.5 * lx, y0 = 0.5 * ly;
  const double w2 = (width * lx) * (width * lx);
  const int k = m.nodes_per_cell;
  for (idx_t c = 0; c < m.ncells; ++c) {
    // Cell centroid (min-image).
    const idx_t n0 = m.cell_nodes[static_cast<std::size_t>(c) * k];
    const double bx = m.node_xy[2 * static_cast<std::size_t>(n0)];
    const double by = m.node_xy[2 * static_cast<std::size_t>(n0) + 1];
    double sx = 0.0, sy = 0.0;
    for (int j = 0; j < k; ++j) {
      const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * k + j];
      sx += m.wrap_dx(m.node_xy[2 * static_cast<std::size_t>(n)] - bx);
      sy += m.wrap_dy(m.node_xy[2 * static_cast<std::size_t>(n) + 1] - by);
    }
    const double cx = bx + sx / k, cy = by + sy / k;
    const double rx = m.wrap_dx(cx - x0), ry = m.wrap_dy(cy - y0);
    const double eta = amp * std::exp(-(rx * rx + ry * ry) / w2);
    u[4 * static_cast<std::size_t>(c)] = static_cast<Real>(depth + eta);  // h
    // hu = hv = 0 (still water), zb = 0 (flat bottom).
  }
  return u;
}

template aligned_vector<float> initial_state<float>(const mesh::UnstructuredMesh&, double,
                                                    double, double);
template aligned_vector<double> initial_state<double>(const mesh::UnstructuredMesh&, double,
                                                      double, double);

}  // namespace opv::volna
