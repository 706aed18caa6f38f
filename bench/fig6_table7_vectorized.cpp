// Figure 6 + Table VII reproduction: explicit vector intrinsics on the CPU.
//
// Paper: Airfoil SP/DP and Volna SP under {MPI, MPI vectorized, OpenMP,
// OpenMP vectorized, OpenCL}; Table VII gives the vectorized pure-MPI
// per-kernel breakdown. Our configurations:
//   MPI            scalar rank simulator (1 rank per thread)
//   MPI vectorized ranks running the Simd backend (AVX2-width vectors)
//   OpenMP         scalar colored blocks
//   OpenMP vect.   Simd backend (AVX2-width vectors) over colored blocks
//   OpenCL         the SIMT emulator

#include "bench_common.hpp"

using namespace opv;
using namespace opv::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const Sizes sz = Sizes::from_cli(cli);
  print_header("Figure 6 + Table VII: explicit SIMD vectorization on the CPU",
               "Reguly et al., Fig. 6 and Table VII");

  const int nthreads = sz.threads > 0 ? sz.threads : hardware_threads();
  auto am = mesh::make_airfoil_omesh(sz.airfoil_ni, sz.airfoil_nj);
  auto vm = mesh::make_tri_periodic(sz.volna_n, sz.volna_n, 10.0, 10.0);
  std::printf("airfoil %d cells x %d iters, volna %d cells x %d steps, %d threads\n\n",
              am.ncells, sz.airfoil_iters, vm.ncells, sz.volna_steps, nthreads);

  const ExecConfig mpi_scalar{.backend = Backend::Seq, .nthreads = 1};
  // AVX(2)-class widths: 4 double lanes / 8 float lanes (the paper's AVX).
  const ExecConfig mpi_vec_dp{.backend = Backend::Simd, .simd_width = 4, .nthreads = 1};
  const ExecConfig mpi_vec_sp{.backend = Backend::Simd, .simd_width = 8, .nthreads = 1};
  const ExecConfig omp_scalar{.backend = Backend::OpenMP, .nthreads = nthreads};
  const ExecConfig omp_vec_dp{.backend = Backend::Simd, .simd_width = 4, .nthreads = nthreads};
  const ExecConfig omp_vec_sp{.backend = Backend::Simd, .simd_width = 8, .nthreads = nthreads};
  const ExecConfig simt_dp{.backend = Backend::Simt, .simd_width = 4, .nthreads = nthreads};
  const ExecConfig simt_sp{.backend = Backend::Simt, .simd_width = 8, .nthreads = nthreads};

  auto t = [](const std::vector<KernelRow>& r) { return perf::Table::num(total_seconds(r), 3); };

  // ---- Figure 6 ------------------------------------------------------------
  perf::Table fig({"application", "MPI", "MPI vectorized", "OpenMP", "OpenMP vectorized",
                   "OpenCL (SIMT model)"});

  const auto a_sp = run_airfoil_dist<float>(am, nthreads, mpi_scalar, sz.airfoil_iters);
  const auto a_sp_v = run_airfoil_dist<float>(am, nthreads, mpi_vec_sp, sz.airfoil_iters);
  const auto a_sp_o = run_airfoil<float>(am, omp_scalar, sz.airfoil_iters);
  const auto a_sp_ov = run_airfoil<float>(am, omp_vec_sp, sz.airfoil_iters);
  const auto a_sp_cl = run_airfoil<float>(am, simt_sp, sz.airfoil_iters);
  fig.add_row({"Airfoil SP", t(a_sp), t(a_sp_v), t(a_sp_o), t(a_sp_ov), t(a_sp_cl)});

  const auto a_dp = run_airfoil_dist<double>(am, nthreads, mpi_scalar, sz.airfoil_iters);
  const auto a_dp_v = run_airfoil_dist<double>(am, nthreads, mpi_vec_dp, sz.airfoil_iters);
  const auto a_dp_o = run_airfoil<double>(am, omp_scalar, sz.airfoil_iters);
  const auto a_dp_ov = run_airfoil<double>(am, omp_vec_dp, sz.airfoil_iters);
  const auto a_dp_cl = run_airfoil<double>(am, simt_dp, sz.airfoil_iters);
  fig.add_row({"Airfoil DP", t(a_dp), t(a_dp_v), t(a_dp_o), t(a_dp_ov), t(a_dp_cl)});

  const auto v_sp = run_volna_dist<float>(vm, nthreads, mpi_scalar, sz.volna_steps);
  const auto v_sp_v = run_volna_dist<float>(vm, nthreads, mpi_vec_sp, sz.volna_steps);
  const auto v_sp_o = run_volna<float>(vm, omp_scalar, sz.volna_steps);
  const auto v_sp_ov = run_volna<float>(vm, omp_vec_sp, sz.volna_steps);
  const auto v_sp_cl = run_volna<float>(vm, simt_sp, sz.volna_steps);
  fig.add_row({"Volna SP", t(v_sp), t(v_sp_v), t(v_sp_o), t(v_sp_ov), t(v_sp_cl)});
  fig.print();

  const double sp_speedup = total_seconds(a_sp) / total_seconds(a_sp_v);
  const double dp_speedup = total_seconds(a_dp) / total_seconds(a_dp_v);
  std::printf("\nAirfoil vectorization speedup (MPI): SP %.2fx, DP %.2fx\n"
              "(paper: 1.6-2.0x SP, 1.1-1.4x DP)\n", sp_speedup, dp_speedup);

  // ---- Table VII ------------------------------------------------------------
  std::printf("\nTable VII analog: vectorized pure-MPI per-kernel breakdown,\n"
              "double(single) precision\n\n");
  perf::Table t7({"kernel", "time DP(SP) s", "BW DP(SP) GB/s"});
  for (std::size_t i = 0; i < a_dp_v.size(); ++i)
    t7.add_row({a_dp_v[i].name,
                perf::Table::num(a_dp_v[i].seconds, 3) + "(" +
                    perf::Table::num(a_sp_v[i].seconds, 3) + ")",
                perf::Table::num(a_dp_v[i].gbs, 1) + "(" +
                    perf::Table::num(a_sp_v[i].gbs, 1) + ")"});
  const auto parens = [](const std::string& v) { return std::string("(").append(v) + ")"; };
  for (const auto& r : v_sp_v)
    t7.add_row({r.name, parens(perf::Table::num(r.seconds, 3)),
                parens(perf::Table::num(r.gbs, 1))});
  t7.print();

  std::printf("\nShape checks vs paper:\n"
              " * SP gains more than DP from vectorization (same register width,\n"
              "   twice the lanes),\n"
              " * direct kernels (save_soln/update) see little gain (already\n"
              "   bandwidth-bound),\n"
              " * compute-heavy kernels (adt_calc/compute_flux) gain most,\n"
              " * indirect-increment kernels gain less (serialized scatters).\n");
  return 0;
}
