// Umbrella header for the opvec core: the complete OP2-style public API.
//
//   opv::Set / opv::Map / opv::Dat<T>        mesh abstraction
//   opv::arg<A, Dim> / opv::arg_gbl<A>       typed argument descriptors
//   opv::AccessMode (opv::READ, ...)         compile-time access modes
//   opv::Loop                                reusable parallel-loop handle
//   opv::ExecConfig / opv::Backend           backend selection
//   opv::Plan / opv::PlanCache               coloring plans (advanced use)
//   opv::reorder                             context-level renumbering pass
//
// The distributed-rank context lives in dist/context.hpp (opv::dist).
#pragma once

#include "core/access.hpp"
#include "core/arg.hpp"
#include "core/config.hpp"
#include "core/dat.hpp"
#include "core/kernel_info.hpp"
#include "core/loop_stats.hpp"
#include "core/map.hpp"
#include "core/par_loop.hpp"
#include "core/plan.hpp"
#include "core/reorder.hpp"
#include "core/set.hpp"
