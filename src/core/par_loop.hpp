// op_par_loop: the execution engine.
//
// OP2 uses source-to-source code generation to produce one specialized stub
// per parallel loop (paper Fig. 2b for MPI, Fig. 3a for OpenCL, Fig. 3b for
// AVX). This engine obtains the same specializations by template
// instantiation: every argument descriptor carries its access mode, its
// arity (Dim) and directness as template parameters (core/arg.hpp), so each
// gather/scatter below is an `if constexpr` and each per-component loop an
// index-sequence expansion — per instantiation the compiler sees exactly
// the branch-free straight-line code OP2's generator would have emitted.
// The user kernel is a functor templated over its value type: instantiating
// with T = double produces the scalar loops; with T = simd::Vec<double,W>
// exactly the gather / vector-kernel / colored-scatter structure of Fig. 3b,
// including the scalar pre/post sweeps. Backends:
//
//   Seq      reference scalar execution
//   OpenMP   threads over colored blocks, scalar kernel (the baseline)
//   AutoVec  scalar kernel on lane-independent (permuted) inner loops
//            annotated with #pragma omp simd - the compiler may or may not
//            vectorize them (the paper's auto-vectorization experiments)
//   Simd     explicit vector classes: gathers, vector kernel, serialized or
//            hardware scatters depending on the coloring strategy
//   Simt     OpenCL-on-CPU model: work-groups pulled from a dynamic queue,
//            W-wide lock-step bundles, per-color masked increments (Fig. 3a)
//
// The entry point is the opv::Loop handle — constructed once, run many
// times. Conflict analysis happens at construction, the coloring Plan and
// the stats slot are pinned on first use, so steady-state iteration does
// zero per-call setup.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/arg.hpp"
#include "core/config.hpp"
#include "core/footprint.hpp"
#include "core/loop_stats.hpp"
#include "core/plan.hpp"
#include "perf/tuner.hpp"
#include "simd/simd.hpp"

namespace opv {

namespace detail {

inline int resolve_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

/// Per-component expansion as an index-sequence fold: every f(c) is a
/// distinct statement with a literal component index, so gathers/scatters
/// fully unroll at instantiation time (the engine's analog of OP2's
/// generator "substituting literal constants", paper section 5).
template <int Dim, class F>
inline void for_each_dim(F&& f) {
  [&]<int... Cs>(std::integer_sequence<int, Cs...>) {
    (f(Cs), ...);
  }(std::make_integer_sequence<int, Dim>{});
}

// ===== bound scalar arguments ==============================================

template <class S, AccessMode A, int Dim, bool Ind>
struct BoundDat {
  S* data = nullptr;
  const idx_t* map = nullptr;
  int map_dim = 0;
  int map_idx = 0;
  Layout layout = Layout::AoS;  ///< physical layout of the bound dat
  idx_t plane = 0;              ///< padded rows (SoA plane stride)
  idx_t stgt = 0;               ///< staged element target (non-AoS scalar path)
  S scratch[kMaxDim] = {};      ///< staged element row (non-AoS scalar path)
};

template <class S, AccessMode A>
struct BoundGbl {
  S* target = nullptr;
  int dim = 0;
  S scratch[kMaxDim] = {};
};

template <class S, AccessMode A, int Dim, bool Ind>
inline BoundDat<S, A, Dim, Ind> bind(const Arg<S, A, Dim, Ind>& a) {
  if constexpr (Ind) {
    return {a.dat->data(), a.map->data(), a.map->dim(), a.map_idx, a.dat->layout(),
            a.dat->plane()};
  } else {
    return {a.dat->data(), nullptr, 0, 0, a.dat->layout(), a.dat->plane()};
  }
}
template <class S, AccessMode A>
inline BoundGbl<S, A> bind(const ArgGbl<S, A>& a) {
  return {a.ptr, a.dim, {}};
}

template <class S, AccessMode A, int Dim, bool Ind>
inline void thread_init(BoundDat<S, A, Dim, Ind>&) {}
template <class S, AccessMode A>
inline void thread_init(BoundGbl<S, A>& g) {
  if constexpr (A == AccessMode::READ) return;
  for (int c = 0; c < g.dim; ++c) {
    if constexpr (A == AccessMode::INC) g.scratch[c] = S(0);
    else if constexpr (A == AccessMode::MIN) g.scratch[c] = std::numeric_limits<S>::max();
    else g.scratch[c] = std::numeric_limits<S>::lowest();
  }
}

template <class S, AccessMode A, int Dim, bool Ind>
inline void thread_merge(BoundDat<S, A, Dim, Ind>&) {}
template <class S, AccessMode A>
inline void thread_merge(BoundGbl<S, A>& g) {
  if constexpr (A == AccessMode::READ) return;
  for (int c = 0; c < g.dim; ++c) {
    if constexpr (A == AccessMode::INC) g.target[c] += g.scratch[c];
    else if constexpr (A == AccessMode::MIN)
      g.target[c] = g.target[c] < g.scratch[c] ? g.target[c] : g.scratch[c];
    else g.target[c] = g.target[c] > g.scratch[c] ? g.target[c] : g.scratch[c];
  }
}

template <class Tuple, std::size_t... Is>
inline void thread_init_all(Tuple& t, std::index_sequence<Is...>) {
  (thread_init(std::get<Is>(t)), ...);
}
template <class Tuple, std::size_t... Is>
inline void thread_merge_all(Tuple& t, std::index_sequence<Is...>) {
  (thread_merge(std::get<Is>(t)), ...);
}

/// Pointer handed to the scalar kernel for element e. The element stride is
/// the literal Dim, so the multiply strength-reduces.
/// Under a non-AoS layout the element's components are not contiguous, so
/// the row is STAGED into the per-arg scratch (current values pre-loaded for
/// every mode, so an INC/RW kernel sees the same load-add-store order the
/// AoS path has — Seq stays bitwise-identical across layouts) and kflush()
/// writes it back after the kernel body.
template <class S, AccessMode A, int Dim, bool Ind>
inline S* kptr(BoundDat<S, A, Dim, Ind>& b, idx_t e) {
  idx_t tgt;
  if constexpr (Ind) {
    tgt = b.map[static_cast<std::size_t>(e) * b.map_dim + b.map_idx];
  } else {
    tgt = e;
  }
  if (b.layout == Layout::AoS) [[likely]]
    return b.data + static_cast<std::size_t>(tgt) * Dim;
  b.stgt = tgt;
  for_each_dim<Dim>(
      [&](int c) { b.scratch[c] = b.data[layout_offset(b.layout, tgt, c, Dim, b.plane)]; });
  return b.scratch;
}
template <class S, AccessMode A>
inline S* kptr(BoundGbl<S, A>& g, idx_t) {
  if constexpr (A == AccessMode::READ) return g.target;
  else return g.scratch;
}

/// Post-kernel writeback of the staged scratch row (non-AoS layouts only;
/// a no-op for AoS, where the kernel wrote through the returned pointer).
template <class S, AccessMode A, int Dim, bool Ind>
inline void kflush(BoundDat<S, A, Dim, Ind>& b) {
  if constexpr (A == AccessMode::READ) return;
  if (b.layout == Layout::AoS) [[likely]]
    return;
  for_each_dim<Dim>(
      [&](int c) { b.data[layout_offset(b.layout, b.stgt, c, Dim, b.plane)] = b.scratch[c]; });
}
template <class S, AccessMode A>
inline void kflush(BoundGbl<S, A>&) {}

template <class Tuple, std::size_t... Is>
inline void kflush_all(Tuple& t, std::index_sequence<Is...>) {
  (kflush(std::get<Is>(t)), ...);
}

// ---- scalar loop bodies ----------------------------------------------------

// The Seq/OpenMP backends are the paper's NON-vectorized baselines. Modern
// GCC auto-vectorizes simple kernels at -O3 -march=native, which would
// silently turn the baseline into a vector backend — so the plain scalar
// loop bodies explicitly opt out. The AutoVec backend uses the *_simd_hint
// variants below, which leave the vectorizer on (that is the experiment).
#if defined(__GNUC__) && !defined(__clang__)
#define OPV_SCALAR_BASELINE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define OPV_SCALAR_BASELINE
#endif

template <class Kernel, class Tuple, std::size_t... Is>
OPV_SCALAR_BASELINE inline void run_range(Kernel& k, Tuple& t, idx_t begin, idx_t end,
                                          std::index_sequence<Is...> seq) {
  for (idx_t e = begin; e < end; ++e) {
    k(kptr(std::get<Is>(t), e)...);
    kflush_all(t, seq);
  }
}

template <class Kernel, class Tuple, std::size_t... Is>
inline void run_range_simd_hint(Kernel& k, Tuple& t, idx_t begin, idx_t end,
                                std::index_sequence<Is...> seq) {
  // The paper's auto-vectorization experiment: assert independence and let
  // the compiler try. Gathers through kptr typically defeat it on CPUs.
#pragma omp simd
  for (idx_t e = begin; e < end; ++e) {
    k(kptr(std::get<Is>(t), e)...);
    kflush_all(t, seq);
  }
}

template <class Kernel, class Tuple, std::size_t... Is>
OPV_SCALAR_BASELINE inline void run_perm(Kernel& k, Tuple& t, const idx_t* perm, idx_t begin,
                                         idx_t end, std::index_sequence<Is...> seq) {
  for (idx_t j = begin; j < end; ++j) {
    const idx_t e = perm[j];
    k(kptr(std::get<Is>(t), e)...);
    kflush_all(t, seq);
  }
}

template <class Kernel, class Tuple, std::size_t... Is>
inline void run_perm_simd_hint(Kernel& k, Tuple& t, const idx_t* perm, idx_t begin, idx_t end,
                               std::index_sequence<Is...> seq) {
#pragma omp simd
  for (idx_t j = begin; j < end; ++j) {
    const idx_t e = perm[j];
    k(kptr(std::get<Is>(t), e)...);
    kflush_all(t, seq);
  }
}

// ===== vector-path argument state ==========================================

template <class S, int W, AccessMode A, int Dim, bool Ind>
struct VDat {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  S* data = nullptr;
  const idx_t* map = nullptr;
  int map_dim = 0;
  int map_idx = 0;
  Layout layout = Layout::AoS;
  idx_t plane = 0;  ///< SoA component-plane stride (padded rows)
  V buf[kMaxDim];
  IV sidx;  ///< layout-scaled target index, kept for scatters

  /// Base pointer of component c's "plane": the address sidx (from lidx)
  /// is relative to. AoS interleaves components (+c), SoA keeps one dense
  /// plane per component, AoSoA interleaves 16-lane panels per component.
  S* comp(int c) const {
    switch (layout) {
      case Layout::AoS: return data + c;
      case Layout::SoA: return data + static_cast<std::size_t>(plane) * c;
      case Layout::AoSoA: return data + static_cast<std::size_t>(kAoSoALanes) * c;
    }
    return data + c;
  }
  /// Layout-scaled element index: comp(c)[lidx(e)] addresses element e's
  /// component c for every layout. AoS scales by dim, SoA is unit-stride,
  /// AoSoA adds a per-16-block skip over the other components' panels.
  /// The lane strides are compile-time literals.
  IV lidx(IV tgt) const {
    switch (layout) {
      case Layout::AoS: return tgt * IV(Dim);
      case Layout::SoA: return tgt;
      case Layout::AoSoA:
        return tgt + (tgt >> kAoSoAShift) * IV(static_cast<std::int32_t>(kAoSoALanes) * (Dim - 1));
    }
    return tgt * IV(Dim);
  }
};

template <class S, int W, AccessMode A>
struct VGbl {
  using V = simd::Vec<S, W>;
  S* target = nullptr;
  int dim = 0;
  V buf[kMaxDim];
};

template <int W, class S, AccessMode A, int Dim, bool Ind>
inline VDat<S, W, A, Dim, Ind> vbind(const Arg<S, A, Dim, Ind>& a) {
  VDat<S, W, A, Dim, Ind> v;
  v.data = a.dat->data();
  if constexpr (Ind) {
    v.map = a.map->data();
    v.map_dim = a.map->dim();
    v.map_idx = a.map_idx;
  }
  v.layout = a.dat->layout();
  v.plane = a.dat->plane();
  return v;
}
template <int W, class S, AccessMode A>
inline VGbl<S, W, A> vbind(const ArgGbl<S, A>& a) {
  VGbl<S, W, A> v;
  v.target = a.ptr;
  v.dim = a.dim;
  return v;
}

template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vthread_init(VDat<S, W, A, Dim, Ind>&) {}
template <class S, int W, AccessMode A>
inline void vthread_init(VGbl<S, W, A>& g) {
  using V = simd::Vec<S, W>;
  for (int c = 0; c < g.dim; ++c) {
    if constexpr (A == AccessMode::READ) g.buf[c] = V(g.target[c]);
    else if constexpr (A == AccessMode::INC) g.buf[c] = V(S(0));
    else if constexpr (A == AccessMode::MIN) g.buf[c] = V(std::numeric_limits<S>::max());
    else g.buf[c] = V(std::numeric_limits<S>::lowest());
  }
}

template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vthread_merge(VDat<S, W, A, Dim, Ind>&) {}
template <class S, int W, AccessMode A>
inline void vthread_merge(VGbl<S, W, A>& g) {
  if constexpr (A == AccessMode::READ) return;
  for (int c = 0; c < g.dim; ++c) {
    if constexpr (A == AccessMode::INC) {
      g.target[c] += simd::hsum(g.buf[c]);
    } else if constexpr (A == AccessMode::MIN) {
      const S m = simd::hmin(g.buf[c]);
      g.target[c] = g.target[c] < m ? g.target[c] : m;
    } else {
      const S m = simd::hmax(g.buf[c]);
      g.target[c] = g.target[c] > m ? g.target[c] : m;
    }
  }
}

template <class Tuple, std::size_t... Is>
inline void vthread_init_all(Tuple& t, std::index_sequence<Is...>) {
  (vthread_init(std::get<Is>(t)), ...);
}
template <class Tuple, std::size_t... Is>
inline void vthread_merge_all(Tuple& t, std::index_sequence<Is...>) {
  (vthread_merge(std::get<Is>(t)), ...);
}

/// Pointer handed to the vector kernel instantiation.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline simd::Vec<S, W>* vkptr(VDat<S, W, A, Dim, Ind>& a) {
  return a.buf;
}
template <class S, int W, AccessMode A>
inline simd::Vec<S, W>* vkptr(VGbl<S, W, A>& a) {
  return a.buf;
}

// ---- gather phase (Fig. 3b "gather data to registers") ---------------------
// Every access-mode decision below is `if constexpr`, and every
// per-component loop goes through for_each_dim<Dim>: fully unrolled
// straight-line gathers/scatters with literal strides.

/// Load a contiguous chunk of W elements starting at n.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vload(VDat<S, W, A, Dim, Ind>& a, idx_t n) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) {
    const IV tgt = IV::strided(a.map + static_cast<std::size_t>(n) * a.map_dim + a.map_idx,
                               a.map_dim);
    a.sidx = a.lidx(tgt);
    if constexpr (A == AccessMode::READ || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
    } else {  // INC (indirect WRITE is also accumulated then scattered)
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    }
  } else {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    } else if constexpr (A != AccessMode::WRITE) {
      if constexpr (Dim == 1) {
        a.buf[0] = V::loadu(a.data + n);
      } else if (a.layout == Layout::SoA) {
        // The SoA payoff: what AoS serves with W strided touches per
        // component is one unit-stride plane load here.
        for_each_dim<Dim>([&](int c) {
          a.buf[c] = V::loadu(a.data + static_cast<std::size_t>(a.plane) * c + n);
        });
      } else if (a.layout == Layout::AoSoA) {
        if ((n & (kAoSoALanes - 1)) + W <= kAoSoALanes) {
          // Chunk lies inside one 16-lane panel: unit-stride per component.
          for_each_dim<Dim>([&](int c) {
            a.buf[c] = V::loadu(a.data + layout_offset(Layout::AoSoA, n, c, Dim, a.plane));
          });
        } else {
          const IV li = a.lidx(IV::iota(static_cast<std::int32_t>(n)));
          for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), li); });
        }
      } else {
        for_each_dim<Dim>([&](int c) {
          a.buf[c] = V::strided(a.data + static_cast<std::size_t>(n) * Dim + c, Dim);
        });
      }
    }
  }
}
template <class S, int W, AccessMode A>
inline void vload(VGbl<S, W, A>&, idx_t) {}

/// Load a chunk of W permuted elements whose ids are in eidx.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vload_perm(VDat<S, W, A, Dim, Ind>& a, simd::Vec<std::int32_t, W> eidx) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) {
    const IV tgt = IV::gather(a.map + a.map_idx, eidx * IV(a.map_dim));
    a.sidx = a.lidx(tgt);
    if constexpr (A == AccessMode::READ || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
    } else {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    }
  } else {
    a.sidx = a.lidx(eidx);
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    } else if constexpr (A != AccessMode::WRITE) {
      // Formerly-direct data must now be gathered (paper section 4: the
      // cost the permute colorings add).
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
    }
  }
}
template <class S, int W, AccessMode A>
inline void vload_perm(VGbl<S, W, A>&, simd::Vec<std::int32_t, W>) {}

// ---- scatter phase ----------------------------------------------------------

/// Flush a contiguous chunk. `hw_scatter` selects the hardware scatter
/// (legal only when lane targets are independent, i.e. permute colorings).
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush(VDat<S, W, A, Dim, Ind>& a, idx_t n, bool hw_scatter) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) {
        if (hw_scatter) simd::scatter_add_hw(a.comp(c), a.sidx, a.buf[c]);
        else simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]);
      });
    } else if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  } else {
    if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      if constexpr (Dim == 1) {
        simd::storeu(a.data + n, a.buf[0]);
      } else if (a.layout == Layout::SoA) {
        for_each_dim<Dim>([&](int c) {
          simd::storeu(a.data + static_cast<std::size_t>(a.plane) * c + n, a.buf[c]);
        });
      } else if (a.layout == Layout::AoSoA) {
        if ((n & (kAoSoALanes - 1)) + W <= kAoSoALanes) {
          for_each_dim<Dim>([&](int c) {
            simd::storeu(a.data + layout_offset(Layout::AoSoA, n, c, Dim, a.plane), a.buf[c]);
          });
        } else {
          const IV li = a.lidx(IV::iota(static_cast<std::int32_t>(n)));
          for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), li, a.buf[c]); });
        }
      } else {
        for_each_dim<Dim>([&](int c) {
          simd::store_strided(a.data + static_cast<std::size_t>(n) * Dim + c, Dim, a.buf[c]);
        });
      }
    } else if constexpr (A == AccessMode::INC) {
      if constexpr (Dim == 1) {
        const V cur = V::loadu(a.data + n);
        simd::storeu(a.data + n, cur + a.buf[0]);
      } else if (a.layout == Layout::SoA) {
        for_each_dim<Dim>([&](int c) {
          S* p = a.data + static_cast<std::size_t>(a.plane) * c + n;
          simd::storeu(p, V::loadu(p) + a.buf[c]);
        });
      } else if (a.layout == Layout::AoSoA) {
        if ((n & (kAoSoALanes - 1)) + W <= kAoSoALanes) {
          for_each_dim<Dim>([&](int c) {
            S* p = a.data + layout_offset(Layout::AoSoA, n, c, Dim, a.plane);
            simd::storeu(p, V::loadu(p) + a.buf[c]);
          });
        } else {
          const IV li = a.lidx(IV::iota(static_cast<std::int32_t>(n)));
          for_each_dim<Dim>([&](int c) { simd::scatter_add_serial(a.comp(c), li, a.buf[c]); });
        }
      } else {
        for_each_dim<Dim>([&](int c) {
          S* p = a.data + static_cast<std::size_t>(n) * Dim + c;
          const V cur = V::strided(p, Dim);
          simd::store_strided(p, Dim, cur + a.buf[c]);
        });
      }
    }
  }
}
template <class S, int W, AccessMode A>
inline void vflush(VGbl<S, W, A>&, idx_t, bool) {}

/// Flush a permuted chunk. Element ids are distinct, so direct writes may
/// scatter; indirect increments use the hardware scatter iff requested.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush_perm(VDat<S, W, A, Dim, Ind>& a, bool hw_scatter) {
  if constexpr (Ind) {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) {
        if (hw_scatter) simd::scatter_add_hw(a.comp(c), a.sidx, a.buf[c]);
        else simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]);
      });
    } else if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  } else {
    if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    } else if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  }
}
template <class S, int W, AccessMode A>
inline void vflush_perm(VGbl<S, W, A>&, bool) {}

/// SIMT colored increment (Fig. 3a): indirect increments are applied
/// color-by-color with a lane mask, serializing conflicting work-items
/// exactly like the generated OpenCL kernel does.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush_simt(VDat<S, W, A, Dim, Ind>& a, idx_t n, const std::int32_t* elem_color,
                        int ncolors) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind && A == AccessMode::INC) {
    const IV cv = IV::loadu(elem_color + n);
    for (int col = 0; col < ncolors; ++col) {
      const auto imask = (cv == IV(col));
      const auto vmask = simd::MaskConvert<V>::from(imask);
      if (!simd::any(imask)) continue;
      for_each_dim<Dim>([&](int c) {
        simd::scatter_add_serial_masked(a.comp(c), a.sidx, a.buf[c], vmask);
      });
    }
  } else {
    vflush(a, n, /*hw_scatter=*/false);
  }
}
template <class S, int W, AccessMode A>
inline void vflush_simt(VGbl<S, W, A>&, idx_t, const std::int32_t*, int) {}

template <class Tuple, std::size_t... Is>
inline void vload_all(Tuple& t, idx_t n, std::index_sequence<Is...>) {
  (vload(std::get<Is>(t), n), ...);
}
template <class Tuple, class IV, std::size_t... Is>
inline void vload_perm_all(Tuple& t, IV eidx, std::index_sequence<Is...>) {
  (vload_perm(std::get<Is>(t), eidx), ...);
}
template <class Tuple, std::size_t... Is>
inline void vflush_all(Tuple& t, idx_t n, bool hw, std::index_sequence<Is...>) {
  (vflush(std::get<Is>(t), n, hw), ...);
}
template <class Tuple, std::size_t... Is>
inline void vflush_perm_all(Tuple& t, bool hw, std::index_sequence<Is...>) {
  (vflush_perm(std::get<Is>(t), hw), ...);
}
template <class Tuple, std::size_t... Is>
inline void vflush_simt_all(Tuple& t, idx_t n, const std::int32_t* ec, int ncolors,
                            std::index_sequence<Is...>) {
  (vflush_simt(std::get<Is>(t), n, ec, ncolors), ...);
}

template <class Kernel, class Tuple, std::size_t... Is>
inline void vcall(Kernel& k, Tuple& t, std::index_sequence<Is...>) {
  k(vkptr(std::get<Is>(t))...);
}

// ===== footprint collection ===================================================

/// One ArgFootprint per argument descriptor: the runtime residue of the
/// compile-time arg_traits classification (access mode and directness come
/// off the TYPE; only the bound dat/map/global identities are runtime data).
/// The loop's conflict list — formerly an ad-hoc per-arg scan — is derived
/// from these (LoopFootprint::conflicts).
template <class S, AccessMode A, int Dim, bool Ind>
inline ArgFootprint footprint_of(const Arg<S, A, Dim, Ind>& a) {
  ArgFootprint f;
  f.dat = a.dat;
  if constexpr (Ind) {
    f.map = a.map;
    f.map_idx = a.map_idx;
  }
  f.access = A;
  f.indirect = Ind;
  return f;
}
template <class S, AccessMode A>
inline ArgFootprint footprint_of(const ArgGbl<S, A>& a) {
  ArgFootprint f;
  f.access = A;
  f.is_gbl = true;
  f.gbl = a.ptr;
  f.gbl_reduction = A != AccessMode::READ;
  return f;
}

/// True if the kernel has a vector instantiation for these arguments (i.e.
/// a templated operator() that accepts Vec pointers). Type-erased kernels
/// (e.g. std::function wrappers) are scalar-only; requesting a vector
/// backend for them is a runtime error instead of a compile error.
template <class Kernel, class... Args>
inline constexpr bool vector_callable =
    std::is_invocable_v<Kernel&, simd::Vec<typename arg_traits<Args>::scalar, 4>*...>;

/// Scalar type of the first floating-point dataset argument (the loop's
/// computational precision); double if there is none.
template <class... Args>
struct first_real {
  using type = double;
};
template <class S, AccessMode A, int Dim, bool Ind, class... Rest>
struct first_real<Arg<S, A, Dim, Ind>, Rest...> {
  using type = std::conditional_t<std::is_floating_point_v<S>, S,
                                  typename first_real<Rest...>::type>;
};
template <class S, AccessMode A, class... Rest>
struct first_real<ArgGbl<S, A>, Rest...> {
  using type = typename first_real<Rest...>::type;
};

}  // namespace detail

// ===== the engine =============================================================

namespace detail {

/// Scalar executors --------------------------------------------------------

template <class Kernel, class Tuple>
void exec_seq(Kernel& k, Tuple t, idx_t n) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
  thread_init_all(t, seq);
  run_range(k, t, 0, n, seq);
  thread_merge_all(t, seq);
}

/// Direct (race-free) scalar execution over [begin, end) — the full
/// iteration space from run(), or one contiguous sparse-tiling range from
/// LoopChain's executor.
template <class Kernel, class Tuple>
void exec_omp_direct(Kernel& k, const Tuple& proto, idx_t begin, idx_t end, int nthreads,
                     bool simd_hint) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
  const idx_t n = end - begin;
#pragma omp parallel num_threads(nthreads)
  {
    Tuple t = proto;
    thread_init_all(t, seq);
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const idx_t chunk = (n + nth - 1) / nth;
    const idx_t lo = begin + std::min<idx_t>(n, tid * chunk);
    const idx_t hi = std::min<idx_t>(end, lo + chunk);
    if (simd_hint) run_range_simd_hint(k, t, lo, hi, seq);
    else run_range(k, t, lo, hi, seq);
#pragma omp critical(opv_reduction)
    thread_merge_all(t, seq);
  }
}

template <class Kernel, class Tuple>
void exec_omp_colored(Kernel& k, const Tuple& proto, const Plan& plan, int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
#pragma omp parallel num_threads(nthreads)
  {
    Tuple t = proto;
    thread_init_all(t, seq);
    for (int col = 0; col < plan.nblock_colors; ++col) {
      const auto& blocks = plan.color_blocks[col];
      const idx_t nb = static_cast<idx_t>(blocks.size());
#pragma omp for schedule(static)
      for (idx_t bi = 0; bi < nb; ++bi) {
        const idx_t b = blocks[bi];
        run_range(k, t, plan.block_begin(b), plan.block_end(b), seq);
      }  // implicit barrier between colors
    }
#pragma omp critical(opv_reduction)
    thread_merge_all(t, seq);
  }
}

/// Scalar execution over a FullPermute schedule. With `simd_hint` this is
/// the paper's auto-vectorization experiment (iterate independent
/// same-color elements and ask the compiler to vectorize); without it, the
/// plain scalar permuted path used for subset (slice) execution.
template <class Kernel, class Tuple>
void exec_perm_fullperm(Kernel& k, const Tuple& proto, const Plan& plan, int nthreads,
                        bool simd_hint) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
#pragma omp parallel num_threads(nthreads)
  {
    Tuple t = proto;
    thread_init_all(t, seq);
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    for (int col = 0; col < plan.nglobal_colors; ++col) {
      const idx_t lo = plan.color_offsets[col], hi = plan.color_offsets[col + 1];
      const idx_t span = hi - lo;
      const idx_t chunk = (span + nth - 1) / nth;
      const idx_t b = std::min<idx_t>(hi, lo + tid * chunk);
      const idx_t e = std::min<idx_t>(hi, b + chunk);
      if (simd_hint) run_perm_simd_hint(k, t, plan.permute.data(), b, e, seq);
      else run_perm(k, t, plan.permute.data(), b, e, seq);
#pragma omp barrier
    }
#pragma omp critical(opv_reduction)
    thread_merge_all(t, seq);
  }
}

/// Scalar execution over a BlockPermute schedule (see exec_perm_fullperm
/// for the simd_hint semantics).
template <class Kernel, class Tuple>
void exec_perm_blockperm(Kernel& k, const Tuple& proto, const Plan& plan, int nthreads,
                         bool simd_hint) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
#pragma omp parallel num_threads(nthreads)
  {
    Tuple t = proto;
    thread_init_all(t, seq);
    for (int col = 0; col < plan.nblock_colors; ++col) {
      const auto& blocks = plan.color_blocks[col];
      const idx_t nb = static_cast<idx_t>(blocks.size());
#pragma omp for schedule(static)
      for (idx_t bi = 0; bi < nb; ++bi) {
        const idx_t b = blocks[bi];
        const idx_t* off = plan.bcol_off.data() + plan.bcol_base[b];
        for (int c = 0; c < plan.block_nelem_colors[b]; ++c) {
          if (simd_hint)
            run_perm_simd_hint(k, t, plan.block_permute.data(), off[c], off[c + 1], seq);
          else
            run_perm(k, t, plan.block_permute.data(), off[c], off[c + 1], seq);
        }
      }
    }
#pragma omp critical(opv_reduction)
    thread_merge_all(t, seq);
  }
}

/// Race-free permuted scalar execution (subset of a loop with no indirect
/// conflicts): threads sweep chunks of the element-id list directly.
template <class Kernel, class Tuple>
void exec_perm_direct(Kernel& k, const Tuple& proto, const idx_t* perm, idx_t n, int nthreads,
                      bool simd_hint) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
#pragma omp parallel num_threads(nthreads)
  {
    Tuple t = proto;
    thread_init_all(t, seq);
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const idx_t chunk = (n + nth - 1) / nth;
    const idx_t lo = std::min<idx_t>(n, tid * chunk);
    const idx_t hi = std::min<idx_t>(n, lo + chunk);
    if (simd_hint) run_perm_simd_hint(k, t, perm, lo, hi, seq);
    else run_perm(k, t, perm, lo, hi, seq);
#pragma omp critical(opv_reduction)
    thread_merge_all(t, seq);
  }
}

/// Vector executors ---------------------------------------------------------

/// Direct (race-free) loops over [begin, end): each thread sweeps a
/// W-aligned chunk with the vector kernel and finishes the remainder with
/// the scalar kernel (the pre/main/post structure of paper section 4.2).
/// The full space from run() has begin == 0; LoopChain's executor passes
/// one contiguous sparse-tiling range.
template <int W, class Kernel, class STuple, class VTuple>
void exec_simd_direct(Kernel& k, const STuple& sproto, const VTuple& vproto, idx_t begin,
                      idx_t end, int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<STuple>>{};
  const idx_t n = end - begin;
#pragma omp parallel num_threads(nthreads)
  {
    STuple st = sproto;
    VTuple vt = vproto;
    thread_init_all(st, seq);
    vthread_init_all(vt, seq);
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const idx_t nvec = n / W;
    const idx_t per = (nvec + nth - 1) / nth;
    const idx_t lo = begin + std::min<idx_t>(nvec, tid * per) * W;
    const idx_t hi = begin + std::min<idx_t>(nvec, (tid * per) + per) * W;
    for (idx_t i = lo; i < hi; i += W) {
      vload_all(vt, i, seq);
      vcall(k, vt, seq);
      vflush_all(vt, i, /*hw=*/false, seq);
    }
    if (tid == nth - 1) run_range(k, st, begin + nvec * W, end, seq);  // post-sweep
#pragma omp critical(opv_reduction)
    {
      vthread_merge_all(vt, seq);
      thread_merge_all(st, seq);
    }
  }
}

/// Race-free permuted vector execution (subset of a loop with no indirect
/// conflicts): W-wide chunks of the element-id list are gathered, computed
/// and scattered per lane (element ids are distinct, so direct writes are
/// safe); the ragged tail runs scalar.
template <int W, class Kernel, class STuple, class VTuple>
void exec_simd_perm_direct(Kernel& k, const STuple& sproto, const VTuple& vproto,
                           const idx_t* perm, idx_t n, int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<STuple>>{};
  using IV = simd::Vec<std::int32_t, W>;
#pragma omp parallel num_threads(nthreads)
  {
    STuple st = sproto;
    VTuple vt = vproto;
    thread_init_all(st, seq);
    vthread_init_all(vt, seq);
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const idx_t nvec = n / W;
    const idx_t per = (nvec + nth - 1) / nth;
    const idx_t lo = std::min<idx_t>(nvec, tid * per) * W;
    const idx_t hi = std::min<idx_t>(nvec, (tid * per) + per) * W;
    for (idx_t j = lo; j < hi; j += W) {
      const IV eidx = IV::loadu(perm + j);
      vload_perm_all(vt, eidx, seq);
      vcall(k, vt, seq);
      vflush_perm_all(vt, /*hw=*/false, seq);
    }
    if (tid == nth - 1) run_perm(k, st, perm, nvec * W, n, seq);  // post-sweep
#pragma omp critical(opv_reduction)
    {
      vthread_merge_all(vt, seq);
      thread_merge_all(st, seq);
    }
  }
}

/// TwoLevel coloring: blocks by color across threads; inside a block, the
/// main vector sweep scatters increments serially per lane (always legal),
/// the ragged tail runs scalar.
template <int W, class Kernel, class STuple, class VTuple>
void exec_simd_colored(Kernel& k, const STuple& sproto, const VTuple& vproto, const Plan& plan,
                       int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<STuple>>{};
#pragma omp parallel num_threads(nthreads)
  {
    STuple st = sproto;
    VTuple vt = vproto;
    thread_init_all(st, seq);
    vthread_init_all(vt, seq);
    for (int col = 0; col < plan.nblock_colors; ++col) {
      const auto& blocks = plan.color_blocks[col];
      const idx_t nb = static_cast<idx_t>(blocks.size());
#pragma omp for schedule(static)
      for (idx_t bi = 0; bi < nb; ++bi) {
        const idx_t b = blocks[bi];
        const idx_t bb = plan.block_begin(b), be = plan.block_end(b);
        idx_t i = bb;
        for (; i + W <= be; i += W) {
          vload_all(vt, i, seq);
          vcall(k, vt, seq);
          vflush_all(vt, i, /*hw=*/false, seq);
        }
        run_range(k, st, i, be, seq);
      }
    }
#pragma omp critical(opv_reduction)
    {
      vthread_merge_all(vt, seq);
      thread_merge_all(st, seq);
    }
  }
}

/// FullPermute: execute color-by-color over the global permutation; all
/// lanes of a vector are independent, so the hardware scatter is legal.
template <int W, class Kernel, class STuple, class VTuple>
void exec_simd_fullperm(Kernel& k, const STuple& sproto, const VTuple& vproto, const Plan& plan,
                        int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<STuple>>{};
  using IV = simd::Vec<std::int32_t, W>;
#pragma omp parallel num_threads(nthreads)
  {
    STuple st = sproto;
    VTuple vt = vproto;
    thread_init_all(st, seq);
    vthread_init_all(vt, seq);
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    for (int col = 0; col < plan.nglobal_colors; ++col) {
      const idx_t lo = plan.color_offsets[col], hi = plan.color_offsets[col + 1];
      const idx_t nvec = (hi - lo) / W;
      const idx_t per = (nvec + nth - 1) / nth;
      const idx_t b = lo + std::min<idx_t>(nvec, tid * per) * W;
      const idx_t e = lo + std::min<idx_t>(nvec, tid * per + per) * W;
      for (idx_t j = b; j < e; j += W) {
        const IV eidx = IV::loadu(plan.permute.data() + j);
        vload_perm_all(vt, eidx, seq);
        vcall(k, vt, seq);
        vflush_perm_all(vt, /*hw=*/true, seq);
      }
      if (tid == nth - 1) run_perm(k, st, plan.permute.data(), lo + nvec * W, hi, seq);
#pragma omp barrier
    }
#pragma omp critical(opv_reduction)
    {
      vthread_merge_all(vt, seq);
      thread_merge_all(st, seq);
    }
  }
}

/// BlockPermute: blocks by color across threads; inside a block, iterate
/// its element-color runs with vector chunks + hardware scatter.
template <int W, class Kernel, class STuple, class VTuple>
void exec_simd_blockperm(Kernel& k, const STuple& sproto, const VTuple& vproto, const Plan& plan,
                         int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<STuple>>{};
  using IV = simd::Vec<std::int32_t, W>;
#pragma omp parallel num_threads(nthreads)
  {
    STuple st = sproto;
    VTuple vt = vproto;
    thread_init_all(st, seq);
    vthread_init_all(vt, seq);
    for (int col = 0; col < plan.nblock_colors; ++col) {
      const auto& blocks = plan.color_blocks[col];
      const idx_t nb = static_cast<idx_t>(blocks.size());
#pragma omp for schedule(static)
      for (idx_t bi = 0; bi < nb; ++bi) {
        const idx_t b = blocks[bi];
        const idx_t* off = plan.bcol_off.data() + plan.bcol_base[b];
        for (int c = 0; c < plan.block_nelem_colors[b]; ++c) {
          idx_t j = off[c];
          for (; j + W <= off[c + 1]; j += W) {
            const IV eidx = IV::loadu(plan.block_permute.data() + j);
            vload_perm_all(vt, eidx, seq);
            vcall(k, vt, seq);
            vflush_perm_all(vt, /*hw=*/true, seq);
          }
          run_perm(k, st, plan.block_permute.data(), j, off[c + 1], seq);
        }
      }
    }
#pragma omp critical(opv_reduction)
    {
      vthread_merge_all(vt, seq);
      thread_merge_all(st, seq);
    }
  }
}

/// SIMT (OpenCL model): work-groups = blocks pulled from a per-color atomic
/// queue (dynamic scheduling overhead); work-items execute in W-wide
/// lock-step bundles; indirect increments are applied per element color with
/// lane masks (Fig. 3a); the ragged tail runs as scalar work-items.
template <int W, class Kernel, class STuple, class VTuple>
void exec_simt(Kernel& k, const STuple& sproto, const VTuple& vproto, const Plan& plan,
               int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<STuple>>{};
  std::vector<std::atomic<idx_t>> counters(std::max(plan.nblock_colors, 1));
  for (auto& c : counters) c.store(0, std::memory_order_relaxed);
#pragma omp parallel num_threads(nthreads)
  {
    STuple st = sproto;
    VTuple vt = vproto;
    thread_init_all(st, seq);
    vthread_init_all(vt, seq);
    for (int col = 0; col < plan.nblock_colors; ++col) {
      const auto& blocks = plan.color_blocks[col];
      const idx_t nb = static_cast<idx_t>(blocks.size());
      std::atomic<idx_t>& ctr = counters[col];
      for (;;) {
        const idx_t bi = ctr.fetch_add(1, std::memory_order_relaxed);
        if (bi >= nb) break;
        const idx_t b = blocks[bi];
        const idx_t bb = plan.block_begin(b), be = plan.block_end(b);
        const int ncolors = plan.block_nelem_colors.empty() ? 1 : plan.block_nelem_colors[b];
        idx_t i = bb;
        for (; i + W <= be; i += W) {
          vload_all(vt, i, seq);
          vcall(k, vt, seq);
          vflush_simt_all(vt, i, plan.elem_color.data(), ncolors, seq);
        }
        run_range(k, st, i, be, seq);
      }
#pragma omp barrier
    }
#pragma omp critical(opv_reduction)
    {
      vthread_merge_all(vt, seq);
      thread_merge_all(st, seq);
    }
  }
}

}  // namespace detail

// ===== the reusable Loop handle ==============================================

/// A parallel loop bound to its kernel, iteration set and typed arguments.
///
///   Loop loop(ResCalc<double>{consts}, "res_calc", edges, args...);
///   for (int it = 0; it < 1000; ++it) loop.run(cfg);
///
/// Construction performs the conflict analysis (which args indirectly modify
/// data — a compile-time fact lifted from the argument types, plus the
/// runtime map identities the plan key needs) and binds the loop's stats
/// slot. The coloring Plan is fetched from the PlanCache on first use and
/// pinned per strategy, so steady-state run() calls do zero setup: no
/// conflict scan, no cache lookup, no registry lookup.
template <class Kernel, class... Args>
class Loop {
 public:
  static constexpr bool has_inc = has_conflicts_v<Args...>;
  static constexpr bool has_gbl_reduction = has_gbl_reduction_v<Args...>;

  Loop(Kernel kernel, std::string name, const Set& set, Args... args)
      : kernel_(std::move(kernel)), name_(std::move(name)), set_(&set), args_(args...) {
    footprint_.iter_set = set_;
    footprint_.args.reserve(sizeof...(Args));
    (footprint_.args.push_back(detail::footprint_of(args)), ...);
    conflicts_ = footprint_.conflicts();
  }

  /// Execute the loop under the given configuration.
  void run(const ExecConfig& cfg) {
    // Loops with indirect increments redundantly execute the import halo so
    // owned data receives all contributions (OP2's owner-compute scheme).
    const idx_t n = has_inc ? set_->exec_size() : set_->size();
    if constexpr (has_inc && has_gbl_reduction) {
      OPV_REQUIRE(set_->exec_size() == set_->size(),
                  "loop '" << name_
                           << "': global reductions combined with indirect increments are not "
                              "supported under halo execution");
    }
    if (n == 0) return;

    const int bs = resolve_block_size(cfg);
    WallTimer timer;
    switch (cfg.backend) {
      case Backend::Seq: {
        auto t = std::apply([](const auto&... a) { return std::make_tuple(detail::bind(a)...); },
                            args_);
        detail::exec_seq(kernel_, t, n);
        break;
      }
      case Backend::OpenMP:
      case Backend::AutoVec: {
        const bool hint = cfg.backend == Backend::AutoVec;
        auto proto = std::apply(
            [](const auto&... a) { return std::make_tuple(detail::bind(a)...); }, args_);
        const int nth = detail::resolve_threads(cfg.nthreads);
        const auto strat = strategy_for(cfg);
        if (!strat) {
          detail::exec_omp_direct(kernel_, proto, 0, n, nth, hint);
        } else if (!hint) {
          detail::exec_omp_colored(kernel_, proto, plan_for(*strat, bs, nth), nth);
        } else {
          const Plan& plan = plan_for(*strat, bs, nth);
          if (*strat == ColoringStrategy::FullPermute)
            detail::exec_perm_fullperm(kernel_, proto, plan, nth, /*simd_hint=*/true);
          else
            detail::exec_perm_blockperm(kernel_, proto, plan, nth, /*simd_hint=*/true);
        }
        break;
      }
      case Backend::Simd:
      case Backend::Simt: {
        if constexpr (detail::vector_callable<Kernel, Args...>) {
          run_vectorized(cfg, bs, n);
        } else {
          OPV_REQUIRE(false, "loop '" << name_
                                      << "': kernel has no vector instantiation (scalar-only "
                                         "callable); use Seq/OpenMP/AutoVec");
        }
        break;
      }
    }
    const double secs = timer.seconds();
    if (tuner_ && cfg.block_size == ExecConfig::kAuto && !tuner_->settled())
      tuner_->observe(bs, secs);
    if (cfg.collect_stats) {
      // Slot bound on first recording run: loops that never collect stats
      // (handles run with collect_stats=false, per-rank loops inside
      // DistCtx) never touch the registry at all. Layouts are frozen before
      // any loop executes, so the layout tag is stamped once at bind.
      if (!stats_) {
        stats_ = &StatsRegistry::instance().slot(name_);
        stats_->layout = layout_tag();
      }
      StatsRegistry::instance().record(*stats_, secs, n);
      const double plan_fresh = fresh_plan_seconds();
      if (plan_fresh > 0.0) StatsRegistry::instance().record_plan(*stats_, plan_fresh);
    }
  }

  /// Execute under the process-wide default configuration.
  void run() { run(default_config()); }

  /// A pinned element-index view of this loop's iteration space, executable
  /// with the loop's kernel instantiations and a colored schedule derived
  /// from the same conflict analysis (paper section 6.5's interior/boundary
  /// phases: the distributed layer runs one Slice per phase). The schedule
  /// (a subset coloring plan for loops with conflicts) is built lazily on
  /// the first run_slice and pinned for the Slice's lifetime.
  class Slice {
   public:
    Slice() = default;
    [[nodiscard]] idx_t size() const { return static_cast<idx_t>(elems_.size()); }
    [[nodiscard]] bool empty() const { return elems_.empty(); }
    [[nodiscard]] const aligned_vector<idx_t>& elems() const { return elems_; }
    /// The pinned subset plan (nullptr until a conflicted run builds it).
    [[nodiscard]] const Plan* plan() const { return plan_.get(); }

   private:
    friend class Loop;
    aligned_vector<idx_t> elems_;
    std::shared_ptr<const Plan> plan_;
    int block_size_ = -1;
    ColoringStrategy strat_ = ColoringStrategy::TwoLevel;
  };

  /// Pin a subset of this loop's iteration space for phased execution.
  /// Element ids must lie inside the range run() would execute — except
  /// that loops combining indirect increments with a global reduction are
  /// capped at the owned range: halo elements would contribute to the
  /// reduction on every executing rank (the slice analog of run()'s
  /// exec_size==size guard, enforced per element instead of per loop).
  [[nodiscard]] Slice make_slice(aligned_vector<idx_t> elems) const {
    const idx_t limit =
        has_inc && !has_gbl_reduction ? set_->exec_size() : set_->size();
    for (idx_t e : elems)
      OPV_REQUIRE(e >= 0 && e < limit, "loop '" << name_ << "': slice element " << e
                                                << " outside the executed range [0," << limit
                                                << ")");
    Slice s;
    s.elems_ = std::move(elems);
    return s;
  }

  /// Execute only the slice's elements. Race-handling mirrors run(): loops
  /// with indirect conflicts go through a subset coloring plan (BlockPermute
  /// by default, FullPermute if cfg asks for it — TwoLevel has no contiguous
  /// blocks to offer a subset, and the Simt queue model likewise executes
  /// its slice through the BlockPermute schedule). Global reductions
  /// init/merge per call, so running a loop as interior + boundary slices
  /// accumulates exactly like one full run. Stats are the caller's business
  /// (a phased caller owns the aggregate timing), so nothing is recorded.
  void run_slice(const ExecConfig& cfg, Slice& s) {
    const idx_t n = s.size();
    if (n == 0) return;
    const idx_t* perm = s.elems_.data();
    constexpr auto iseq = std::index_sequence_for<Args...>{};
    const int nth = detail::resolve_threads(cfg.nthreads);
    switch (cfg.backend) {
      case Backend::Seq: {
        auto t = std::apply([](const auto&... a) { return std::make_tuple(detail::bind(a)...); },
                            args_);
        detail::thread_init_all(t, iseq);
        detail::run_perm(kernel_, t, perm, 0, n, iseq);
        detail::thread_merge_all(t, iseq);
        break;
      }
      case Backend::OpenMP:
      case Backend::AutoVec: {
        const bool hint = cfg.backend == Backend::AutoVec;
        auto proto = std::apply(
            [](const auto&... a) { return std::make_tuple(detail::bind(a)...); }, args_);
        if constexpr (!has_inc) {
          detail::exec_perm_direct(kernel_, proto, perm, n, nth, hint);
        } else {
          const Plan& plan = slice_plan(s, cfg);
          if (plan.strategy == ColoringStrategy::FullPermute)
            detail::exec_perm_fullperm(kernel_, proto, plan, nth, hint);
          else
            detail::exec_perm_blockperm(kernel_, proto, plan, nth, hint);
        }
        break;
      }
      case Backend::Simd:
      case Backend::Simt: {
        if constexpr (detail::vector_callable<Kernel, Args...>) {
          run_slice_vectorized(cfg, s, n, nth);
        } else {
          OPV_REQUIRE(false, "loop '" << name_
                                      << "': kernel has no vector instantiation (scalar-only "
                                         "callable); use Seq/OpenMP/AutoVec");
        }
        break;
      }
    }
  }

  /// Execute only the contiguous element range [lo, hi) of the iteration
  /// space, in place of run(). Seq preserves the exact ascending element
  /// order (so a cover of ranges executed in order is bitwise-identical to
  /// one run(), increments included); the parallel backends take the same
  /// race-free direct path run() would — loops with indirect conflicts must
  /// go through a Slice there (the LoopChain executor routes them so).
  void run_range(const ExecConfig& cfg, idx_t lo, idx_t hi) {
    if (hi <= lo) return;
    const idx_t limit = has_inc ? set_->exec_size() : set_->size();
    OPV_REQUIRE(lo >= 0 && hi <= limit, "loop '" << name_ << "': range [" << lo << "," << hi
                                                 << ") outside the executed range [0," << limit
                                                 << ")");
    constexpr auto iseq = std::index_sequence_for<Args...>{};
    switch (cfg.backend) {
      case Backend::Seq: {
        auto t = std::apply([](const auto&... a) { return std::make_tuple(detail::bind(a)...); },
                            args_);
        detail::thread_init_all(t, iseq);
        detail::run_range(kernel_, t, lo, hi, iseq);
        detail::thread_merge_all(t, iseq);
        break;
      }
      case Backend::OpenMP:
      case Backend::AutoVec: {
        OPV_REQUIRE(!has_inc, "loop '" << name_
                                       << "': run_range on a parallel backend requires a "
                                          "race-free loop; use run_slice (subset coloring)");
        auto proto = std::apply(
            [](const auto&... a) { return std::make_tuple(detail::bind(a)...); }, args_);
        detail::exec_omp_direct(kernel_, proto, lo, hi, detail::resolve_threads(cfg.nthreads),
                                cfg.backend == Backend::AutoVec);
        break;
      }
      case Backend::Simd: {
        OPV_REQUIRE(!has_inc, "loop '" << name_
                                       << "': run_range on a parallel backend requires a "
                                          "race-free loop; use run_slice (subset coloring)");
        if constexpr (detail::vector_callable<Kernel, Args...>) {
          run_range_vectorized(cfg, lo, hi);
        } else {
          OPV_REQUIRE(false, "loop '" << name_
                                      << "': kernel has no vector instantiation (scalar-only "
                                         "callable); use Seq/OpenMP/AutoVec");
        }
        break;
      }
      case Backend::Simt:
        // The Simt queue model schedules through a plan; contiguous ranges
        // execute via run_slice's BlockPermute subset schedule instead.
        OPV_REQUIRE(false, "loop '" << name_ << "': run_range is not available on Simt");
        break;
    }
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Set& set() const { return *set_; }
  [[nodiscard]] const std::vector<IncRef>& conflicts() const { return conflicts_; }

  /// The physical layouts of the dats this loop's arguments bind, in first-
  /// appearance order ("AoS", "SoA+AoS", ...) — the stats-table layout tag.
  [[nodiscard]] std::string layout_tag() const {
    std::string tag;
    bool seen[3] = {false, false, false};
    for (const auto& a : footprint_.args) {
      if (a.is_gbl || a.dat == nullptr) continue;
      const Layout l = a.dat->layout();
      if (seen[static_cast<int>(l)]) continue;
      seen[static_cast<int>(l)] = true;
      if (!tag.empty()) tag += "+";
      tag += layout_name(l);
    }
    return tag;
  }

  /// The pinned per-argument access summary (sets touched, map + access
  /// mode per argument) derived from the argument types at construction —
  /// the loop's public dependence interface (LoopChain's inspector input).
  [[nodiscard]] const LoopFootprint& footprint() const { return footprint_; }

  /// The pinned plan this loop would use under `cfg` (nullptr if the
  /// configuration needs no plan). Exposed so callers/tests can verify plan
  /// reuse across run() calls.
  [[nodiscard]] const Plan* plan(const ExecConfig& cfg) {
    const auto strat = strategy_for(cfg);
    if (!strat) return nullptr;
    return &plan_for(*strat, resolve_block_size(cfg), detail::resolve_threads(cfg.nthreads));
  }

  /// kAuto result: the settled block size (0 while still tuning, or when
  /// this loop always ran with an explicit block size / no plan).
  [[nodiscard]] int tuned_block_size() const {
    return tuner_ && tuner_->settled() ? tuner_->best() : 0;
  }

  /// Cumulative wall seconds this handle spent acquiring coloring plans
  /// (cache lookups + builds, including subset plans for slices). The
  /// distributed layer aggregates this across its rank loops into the
  /// stats `plan` column.
  [[nodiscard]] double plan_build_seconds() const { return plan_build_secs_; }

  /// Plan-acquisition seconds accumulated since the last flush to the stats
  /// registry, marking them reported. run() flushes through this under
  /// collect_stats; an external stats-owning runner (LoopChain, which drives
  /// slices that record nothing themselves) does the same so a loop's plan
  /// share is accounted exactly once whichever path executes it.
  [[nodiscard]] double fresh_plan_seconds() {
    const double d = plan_build_secs_ - plan_secs_reported_;
    plan_secs_reported_ = plan_build_secs_;
    return d;
  }

 private:
  /// Block size for the next run: explicit from cfg, or — under
  /// ExecConfig::kAuto — the online tuner's current candidate. Loops that
  /// never need a plan skip tuning entirely (block size is meaningless).
  int resolve_block_size(const ExecConfig& cfg) {
    if (cfg.block_size != ExecConfig::kAuto) return cfg.block_size;
    if (!strategy_for(cfg)) return ExecConfig::kDefaultBlockSize;
    if (!tuner_) tuner_ = std::make_unique<perf::OnlineTuner>();
    return tuner_->propose();
  }

  /// The single source of truth for backend -> coloring-strategy selection
  /// (used by run(), run_vectorized() and plan()). nullopt = no plan needed.
  [[nodiscard]] static std::optional<ColoringStrategy> strategy_for(const ExecConfig& cfg) {
    // Simt always schedules work-groups through a TwoLevel plan, conflicts
    // or not (the dynamic block queue lives in the plan).
    if (cfg.backend == Backend::Simt) return ColoringStrategy::TwoLevel;
    if (!has_inc || cfg.backend == Backend::Seq) return std::nullopt;
    // Scalar OpenMP races are handled at block granularity only.
    if (cfg.backend == Backend::OpenMP) return ColoringStrategy::TwoLevel;
    // AutoVec requires lane independence: TwoLevel cannot provide it, so
    // fall back to BlockPermute (the paper's scheme for enabling compiler
    // vectorization of gather-scatter loops).
    if (cfg.backend == Backend::AutoVec && cfg.coloring == ColoringStrategy::TwoLevel)
      return ColoringStrategy::BlockPermute;
    return cfg.coloring;
  }
  /// Memoized plan lookup: one pinned shared_ptr per coloring strategy.
  /// Acquisition wall time (the cache lookup plus any build it triggers)
  /// accumulates into plan_build_secs_ — the ROADMAP's plan-construction
  /// cost, reported through the stats `plan` column. `nthreads` is this
  /// loop's thread budget, bounding the build's internal parallelism (a
  /// dist rank loop with nthreads=1 must not spawn a full-machine team).
  const Plan& plan_for(ColoringStrategy strat, int block_size, int nthreads) {
    PlanSlot& s = plans_[static_cast<int>(strat)];
    if (!s.plan || s.block_size != block_size) {
      WallTimer t;
      s.plan = PlanCache::instance().get(*set_, conflicts_, block_size, strat, nthreads);
      plan_build_secs_ += t.seconds();
      s.block_size = block_size;
    }
    return *s.plan;
  }

  /// Subset plan for a Slice, built once and pinned (slices are per-handle
  /// state, so they bypass the process-wide PlanCache). Subsets have no
  /// contiguous blocks, so TwoLevel/Simt requests resolve to BlockPermute —
  /// the same block-color / element-color structure, iterated through a
  /// permutation. kAuto block sizes fall back to the default: the online
  /// tuner measures full runs, and varying a pinned phase schedule per call
  /// would make overlapped and blocking executions diverge.
  const Plan& slice_plan(Slice& s, const ExecConfig& cfg) {
    const ColoringStrategy strat = cfg.backend != Backend::Simt &&
                                           cfg.coloring == ColoringStrategy::FullPermute
                                       ? ColoringStrategy::FullPermute
                                       : ColoringStrategy::BlockPermute;
    const int bs =
        cfg.block_size != ExecConfig::kAuto ? cfg.block_size : ExecConfig::kDefaultBlockSize;
    if (!s.plan_ || s.block_size_ != bs || s.strat_ != strat) {
      WallTimer t;
      std::vector<IncRef> sorted = conflicts_;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      s.plan_ = build_plan(s.size(), sorted, bs, strat, s.elems_.data(),
                           detail::resolve_threads(cfg.nthreads));
      plan_build_secs_ += t.seconds();
      s.block_size_ = bs;
      s.strat_ = strat;
    }
    return *s.plan_;
  }

  /// Vector-width dispatch for contiguous-range execution (race-free loops
  /// only; the callers guard).
  void run_range_vectorized(const ExecConfig& cfg, idx_t lo, idx_t hi) {
    using Real = typename detail::first_real<Args...>::type;
    const int nth = detail::resolve_threads(cfg.nthreads);
    auto dispatch = [&]<int W>() {
      auto sproto = std::apply(
          [](const auto&... a) { return std::make_tuple(detail::bind(a)...); }, args_);
      auto vproto = std::apply(
          [](const auto&... a) { return std::make_tuple(detail::vbind<W>(a)...); }, args_);
      detail::exec_simd_direct<W>(kernel_, sproto, vproto, lo, hi, nth);
    };
    const int w = cfg.simd_width > 0 ? cfg.simd_width : simd::max_lanes<Real>;
    switch (w) {
      case 4: dispatch.template operator()<4>(); break;
      case 8: dispatch.template operator()<8>(); break;
      case 16: dispatch.template operator()<16>(); break;
      default:
        OPV_REQUIRE(false, "unsupported simd width " << w << " (use 4, 8 or 16)");
    }
  }

  /// Vector-width dispatch for slice execution (mirrors run_vectorized).
  void run_slice_vectorized(const ExecConfig& cfg, Slice& s, idx_t n, int nth) {
    using Real = typename detail::first_real<Args...>::type;
    auto dispatch = [&]<int W>() {
      auto sproto = std::apply(
          [](const auto&... a) { return std::make_tuple(detail::bind(a)...); }, args_);
      auto vproto = std::apply(
          [](const auto&... a) { return std::make_tuple(detail::vbind<W>(a)...); }, args_);
      if constexpr (!has_inc) {
        detail::exec_simd_perm_direct<W>(kernel_, sproto, vproto, s.elems_.data(), n, nth);
      } else {
        const Plan& plan = slice_plan(s, cfg);
        if (plan.strategy == ColoringStrategy::FullPermute)
          detail::exec_simd_fullperm<W>(kernel_, sproto, vproto, plan, nth);
        else
          detail::exec_simd_blockperm<W>(kernel_, sproto, vproto, plan, nth);
      }
    };
    const int w = cfg.simd_width > 0 ? cfg.simd_width : simd::max_lanes<Real>;
    switch (w) {
      case 4: dispatch.template operator()<4>(); break;
      case 8: dispatch.template operator()<8>(); break;
      case 16: dispatch.template operator()<16>(); break;
      default:
        OPV_REQUIRE(false, "unsupported simd width " << w << " (use 4, 8 or 16)");
    }
  }

  /// Vector-width dispatch: instantiate the engine for the requested W.
  void run_vectorized(const ExecConfig& cfg, int block_size, idx_t n) {
    using Real = typename detail::first_real<Args...>::type;
    const int nth = detail::resolve_threads(cfg.nthreads);
    auto dispatch = [&]<int W>() {
      auto sproto = std::apply(
          [](const auto&... a) { return std::make_tuple(detail::bind(a)...); }, args_);
      auto vproto = std::apply(
          [](const auto&... a) { return std::make_tuple(detail::vbind<W>(a)...); }, args_);
      const auto strat = strategy_for(cfg);
      if (cfg.backend == Backend::Simt) {
        detail::exec_simt<W>(kernel_, sproto, vproto, plan_for(*strat, block_size, nth), nth);
        return;
      }
      if (!strat) {
        detail::exec_simd_direct<W>(kernel_, sproto, vproto, 0, n, nth);
        return;
      }
      const Plan& plan = plan_for(*strat, block_size, nth);
      switch (*strat) {
        case ColoringStrategy::TwoLevel:
          detail::exec_simd_colored<W>(kernel_, sproto, vproto, plan, nth);
          break;
        case ColoringStrategy::FullPermute:
          detail::exec_simd_fullperm<W>(kernel_, sproto, vproto, plan, nth);
          break;
        case ColoringStrategy::BlockPermute:
          detail::exec_simd_blockperm<W>(kernel_, sproto, vproto, plan, nth);
          break;
      }
    };
    const int w = cfg.simd_width > 0 ? cfg.simd_width : simd::max_lanes<Real>;
    switch (w) {
      case 4: dispatch.template operator()<4>(); break;
      case 8: dispatch.template operator()<8>(); break;
      case 16: dispatch.template operator()<16>(); break;
      default:
        OPV_REQUIRE(false, "unsupported simd width " << w << " (use 4, 8 or 16)");
    }
  }

  struct PlanSlot {
    int block_size = -1;
    std::shared_ptr<const Plan> plan;
  };

  Kernel kernel_;
  std::string name_;
  const Set* set_;
  std::tuple<Args...> args_;
  LoopFootprint footprint_;
  std::vector<IncRef> conflicts_;
  LoopRecord* stats_ = nullptr;
  PlanSlot plans_[3];
  double plan_build_secs_ = 0.0;     ///< cumulative plan acquisition time
  double plan_secs_reported_ = 0.0;  ///< share already flushed to stats_
  /// Allocated on the first kAuto run. The tuned block size is pinned per
  /// Loop INSTANCE, never shared through any global registry: re-templating
  /// a loop (e.g. changing an argument's access mode or Dim changes the Loop
  /// type and the generated code) yields a fresh handle that re-tunes from
  /// scratch rather than inheriting a pin measured on different code (test:
  /// RetypedHandleReTunes).
  std::unique_ptr<perf::OnlineTuner> tuner_;
};

template <class Kernel, class... Args>
Loop(Kernel, std::string, const Set&, Args...) -> Loop<Kernel, Args...>;

}  // namespace opv
