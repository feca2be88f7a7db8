// Machine-speed probe.
//
// The benchmark shares its cores with other tenants of the host.  Their load
// slows every instruction stream for seconds to minutes at a time, by up to
// a half, and batch rates of identical work swing by 20-40% between runs.
// Two fixed, benchmark-private kernels are timed between batches:
//
//   * mix: hash-table probes and short-lived packet-sized heap buffers,
//     inside the private L2 -- the framework's own kind of work;
//   * mem: independent random loads over a buffer four times the L2, so
//     they hit the shared L3 that the other tenants also use.
//
// On the reference machine (a 4-vCPU KVM guest on an AVX-512 Xeon, 2 MiB
// L2 per core, 300 MiB shared L3) 90 s of alternating framework slices and
// probes gave: framework batch time ~ (mix_time * mem_time)^0.65, with
// 3.5-second windows of campaign and stream work scattering by 3-5% (IQR
// over median) around that law where their raw times scattered by 25-30%.
// A pure ALU loop tracked the framework at a correlation of only 0.5: the
// tenants contend for caches and memory, not for arithmetic.
//
// The kernels live here, outside src/, so no change to the framework can
// move them; rates normalized by the probe stay comparable between runs.
#pragma once

#include <cstddef>

namespace perfbench {

// Kernel times on an idle core of the reference machine.  Only a scale:
// they set what "nominal speed" means, not how runs compare.
inline constexpr double kNominalMixSeconds = 0.0048;
inline constexpr double kNominalMemSeconds = 0.0048;
inline constexpr double kSlowdownExponent = 0.65;

// Runs both kernels once and returns how much slower than nominal the
// framework runs right now: 1 on an idle core, above 1 under contention.
double probe_slowdown();

// The mem kernel's buffer, resident from the first probe to exit.
std::size_t probe_resident_bytes();

}  // namespace perfbench
