// CPU-GPU communication model (paper Section III.D).
//
// The paper uses two host-side functions per time step:
//
//   1. a NON-BLOCKING setup+launch call, invoked by one CPU thread inside
//      the parallel region while another thread starts the tree traversal --
//      CPU and GPU work therefore begin effectively in parallel;
//   2. a BLOCKING gather call after the traversal completes, which waits for
//      the kernels and copies the results back (cudaMemcpy).
//
// This module models the timeline of that protocol: upload of body data and
// work lists before the kernels, the kernel interval itself, and the result
// download afterwards, over a PCIe-like link per GPU (transfers to distinct
// GPUs overlap; transfer and kernel on one GPU serialize the way a default
// stream would). The step's wall clock becomes
//
//   step = launch_host + max(CPU_far_field, upload + kernel) + download
//
// where the blocking gather issues one cudaMemcpy per GPU from a single host
// thread, so the per-transfer setup latencies (and any retry + backoff
// delays) SERIALIZE across GPUs while the bulk bytes stream concurrently on
// the per-GPU links:
//
//   download = sum_i(latency_i + retry_i) + max_i(bytes_i / bandwidth)
//
// The whole model reduces to the paper's max(CPU, GPU) when transfer times
// are zero.
//
// Transient link faults: when a TransferFaultModel with fail_prob > 0 is
// supplied, each transfer attempt can fail and is retried with exponential
// backoff. A failed attempt pays the full transfer time plus the backoff
// before the retry; after `max_retries` failed attempts the final attempt is
// assumed to go through (the faults modeled here are transient, and data is
// never corrupted -- only delayed). All retry time is charged into the
// StepTimeline so the balancer sees the degraded link as longer steps.
#pragma once

#include <cstdint>
#include <vector>

namespace afmm {

struct TransferLinkConfig {
  double bandwidth_gbs = 5.0;   // effective PCIe 2.0 x16 throughput
  double latency_us = 10.0;     // per-transfer setup latency
  double host_launch_us = 5.0;  // host-side cost of the non-blocking call
  // Retry policy for transient transfer failures.
  int max_retries = 4;             // failed attempts before the forced success
  double backoff_base_us = 50.0;   // backoff before the first retry
  double backoff_multiplier = 2.0; // backoff growth per further retry

  // Throws std::invalid_argument naming the field and the value unless the
  // bandwidth is finite and > 0, the latencies and backoffs finite and >= 0,
  // and max_retries >= 0.
  void validate() const;
};

// Deterministic transient-fault source for the retry model. Each attempt is
// an independent draw keyed by (seed, key, attempt): the same schedule seed
// replays the same failures, and distinct transfers decorrelate via `key`.
struct TransferFaultModel {
  double fail_prob = 0.0;
  std::uint64_t seed = 0;

  bool active() const { return fail_prob > 0.0; }
  bool attempt_fails(std::uint64_t key, int attempt) const;
};

struct GpuTransferShape {
  std::uint64_t upload_bytes = 0;    // bodies + work lists for this GPU
  std::uint64_t download_bytes = 0;  // per-target results
  double kernel_seconds = 0.0;       // from gpusim/simulate_kernel
};

struct StepTimeline {
  double launch_seconds = 0.0;    // host-side non-blocking call
  double gpu_done_seconds = 0.0;  // when the slowest GPU's kernel finishes
                                  // (measured from the launch call's return)
  double download_seconds = 0.0;  // blocking gather after CPU work is done
  double retry_seconds = 0.0;     // total failed-attempt + backoff time paid
  int retries = 0;                // failed transfer attempts across all GPUs
  // Wall clock of the heterogeneous step given the CPU far-field time.
  double step_seconds(double cpu_far_field_seconds) const {
    const double concurrent =
        cpu_far_field_seconds > gpu_done_seconds ? cpu_far_field_seconds
                                                 : gpu_done_seconds;
    return launch_seconds + concurrent + download_seconds;
  }
};

double transfer_seconds(const TransferLinkConfig& link, std::uint64_t bytes);

// Transfer time including retries under `faults`: every failed attempt pays
// the full transfer plus the (exponentially growing) backoff; the attempt
// after `max_retries` failures always succeeds. `retries_out` (optional)
// accumulates the number of failed attempts.
double transfer_seconds_with_retries(const TransferLinkConfig& link,
                                     std::uint64_t bytes,
                                     const TransferFaultModel& faults,
                                     std::uint64_t key,
                                     int* retries_out = nullptr);

// Builds the step timeline for a set of per-GPU shapes. Uploads/kernels of
// different GPUs overlap with each other and with the CPU far field;
// downloads happen in the blocking gather and are serialized per link
// latency but overlap across GPUs in bandwidth (the download formula in the
// header comment above). The fault overload charges retry-with-backoff
// delays per transfer (uploads delay that GPU's kernel completion; download
// retries stretch the serialized part of the blocking gather).
StepTimeline plan_step(const TransferLinkConfig& link,
                       const std::vector<GpuTransferShape>& gpus);
StepTimeline plan_step(const TransferLinkConfig& link,
                       const std::vector<GpuTransferShape>& gpus,
                       const TransferFaultModel& faults);

// Bytes moved for a gravity-style solve: per body 4 doubles up (position +
// charge) and 4 doubles down (potential + gradient), plus the work lists.
GpuTransferShape gravity_transfer_shape(std::uint64_t bodies_uploaded,
                                        std::uint64_t targets_downloaded,
                                        std::uint64_t work_list_entries,
                                        double kernel_seconds);

}  // namespace afmm
