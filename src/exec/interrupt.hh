/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for durable batch runs.
 *
 * A durable sweep must not die mid-record on Ctrl-C or a terminate
 * request: the handler only raises a flag; the JobRunner stops
 * dispatching new jobs, drains the ones already in flight, finalizes
 * the run manifest, and the tool exits with kExitResumable. SIGTERM
 * is handled like SIGINT because `kill`, batch schedulers and CI
 * runners stop a process with it, and a drained sweep leaves a
 * finalized, resumable run directory. A second signal (either one)
 * restores the default disposition and re-raises, so an impatient
 * double Ctrl-C still force-kills.
 *
 * Tests (and the deterministic CI smoke) inject the same signal via
 * requestInterrupt() instead of delivering a real signal.
 */

#ifndef DCL1_EXEC_INTERRUPT_HH
#define DCL1_EXEC_INTERRUPT_HH

namespace dcl1::exec
{

/** Install the cooperative SIGINT+SIGTERM handler (idempotent). */
void installSignalHandlers();

/** Raise the interrupt flag (what the signal handler does). */
void requestInterrupt();

/** Has an interrupt been requested? Checked between jobs. */
bool interruptRequested();

/** Reset the flag (tests; a resumed batch starts clean). */
void clearInterrupt();

} // namespace dcl1::exec

#endif // DCL1_EXEC_INTERRUPT_HH
