// Host-speed calibration.
//
// The benchmark runs on hosts shared with other jobs, and how fast such a
// host runs this program changes by up to half from one second to the next
// and from one minute to the next, while a plain arithmetic loop keeps its
// speed. HostSpeed() runs a fixed kernel of the program's own kind (SipHash,
// string formatting, ordered-map inserts: hashing, allocation, pointer
// chasing) and reports its speed relative to the reference host. The
// workloads measure it next to every window of work and report each
// wall-clock figure at the reference speed: a rate divided by the factor, a
// time multiplied by it. The kernel is the benchmark's own code, so a change
// to the program under test moves the figures and never the factor.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

// Kernel rounds per second on the reference host (4 shared vCPUs, Intel
// Xeon at 2.1 GHz) at its fastest; HostSpeed() is 1 there.
inline constexpr double kReferenceProbeRate = 15000;

// How long one HostSpeed() call runs its kernel, in seconds.
inline constexpr double kProbeS = 0.04;

// Runs the kernel for kProbeS and returns its rate over kReferenceProbeRate:
// above 1 on a faster host, below 1 on a slower one.
double HostSpeed();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
