/**
 * @file
 * Worker side of the distributed sweep protocol: a job loop that serves
 * grid points over one file descriptor until the driver sends Done.
 *
 * Workers are either forked children of the driver (library backend) or
 * self-exec'd processes (`vmmx_study --worker --fd N`); both run the
 * same serve loop.  Each worker owns a private tiered TraceRepository
 * so its per-tier statistics describe exactly the jobs it ran, with the
 * shared on-disk TraceStore as the cross-process tier 0 and the decoded
 * tier amortizing the per-record decode across all of the worker's
 * groups on the same trace.
 */

#ifndef VMMX_DIST_WORKER_HH
#define VMMX_DIST_WORKER_HH

namespace vmmx::dist
{

/**
 * Serve jobs over @p fd until a Done frame or EOF.  Blocks; returns the
 * process exit code (0 on a clean shutdown).  Closes @p fd.
 */
int workerServe(int fd);

/**
 * Self-exec entry hook: if @p argv requests worker mode
 * ("--worker --fd N"), serve on that descriptor and _exit() -- never
 * returns in that case.  Call first thing in main() of any binary used
 * as an ExecutionPolicy::execPath target.  @return false when argv is
 * not a worker invocation.
 */
bool maybeWorkerMain(int argc, char **argv);

} // namespace vmmx::dist

#endif // VMMX_DIST_WORKER_HH
