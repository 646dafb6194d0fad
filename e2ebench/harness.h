// Shared code of the end-to-end benchmark binaries (see README.md).
#ifndef CAPD_E2EBENCH_HARNESS_H_
#define CAPD_E2EBENCH_HARNESS_H_

#include <cstdint>

namespace capd {
namespace e2e {

// The traced binary passes capd::AllocCount; the untraced one passes null,
// so only the traced binary links the allocation tracker.
using AllocCounter = uint64_t (*)();

// Runs one workload:
//   --workload NAME --seed N --seconds S --json PATH [--spans PATH]
// Writes a BenchReport JSON to PATH. A non-null `alloc_count` selects the
// traced run: spans, per-layer metrics and the direct-call probes.
// Returns 0 when every check passed, 1 when one failed, 2 on bad flags.
int HarnessMain(int argc, char** argv, AllocCounter alloc_count);

}  // namespace e2e
}  // namespace capd

#endif  // CAPD_E2EBENCH_HARNESS_H_
