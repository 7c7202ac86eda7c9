package dist

import (
	"fmt"
	"os"
	"os/exec"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/live"
	"tstorm/internal/trace"
)

// Process supervision: one goroutine per slot spawns the worker process
// (this same binary, re-executed), waits on it, and respawns it with
// exponential backoff when it dies — Storm's supervisor daemon, with
// kill -9 as the failure it exists to absorb. A slot on a failed node
// idles until RecoverNode.

// RestartRecord documents one worker-process respawn: 1-based attempt
// number, the backoff the schedule imposed, and the crash→respawn wait
// actually observed (≥ Backoff). The chaos tests assert the schedule is
// genuinely exponential from these, exactly as they do for the in-process
// supervisor's executor restarts.
type RestartRecord struct {
	Slot    cluster.SlotID
	Attempt int
	Backoff time.Duration
	Waited  time.Duration
}

// nodeDownScanPeriod is how often an idled supervisor re-checks whether
// its failed node recovered.
const nodeDownScanPeriod = 50 * time.Millisecond

// Backoff exposes the restart schedule: the wait imposed before respawn
// attempt n (0-based), doubling from the base up to the cap.
func (e *Engine) Backoff(n int) time.Duration {
	return live.Backoff(e.cfg.BackoffBase, e.cfg.BackoffCap, n)
}

// History returns a copy of the process-restart log in respawn order.
func (e *Engine) History() []RestartRecord {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	return append([]RestartRecord(nil), e.history...)
}

// superviseSlot is the per-slot supervision loop.
func (e *Engine) superviseSlot(h *workerHandle) {
	defer e.wg.Done()
	wlog := e.cfg.Log.With("worker", h.slot.String())
	crashes := 0
	var lastCrash time.Time
	for {
		if e.stopped.Load() {
			return
		}
		if e.nodeDown(h.slot.Node) {
			select {
			case <-e.stopCh:
				return
			case <-time.After(nodeDownScanPeriod):
			}
			continue
		}
		var backoff time.Duration
		if crashes > 0 {
			backoff = e.Backoff(crashes - 1)
			if wait := backoff - time.Since(lastCrash); wait > 0 {
				select {
				case <-e.stopCh:
					return
				case <-time.After(wait):
				}
			}
			// A node failure during the backoff re-enters the idle loop.
			if e.nodeDown(h.slot.Node) || e.stopped.Load() {
				continue
			}
		}
		cmd, err := e.spawnWorker(h)
		if err != nil {
			// Spawn failures (fd exhaustion and friends) retry on the same
			// backoff schedule as crashes.
			e.emitTrace(trace.WorkerCrashed, "", h.slot.String(), fmt.Sprintf("spawn failed: %v", err))
			wlog.Errorf("spawn failed: %v", err)
			lastCrash = time.Now()
			crashes++
			continue
		}
		h.setProcess(cmd)
		if crashes > 0 {
			e.procRestarts.Add(1)
			rec := RestartRecord{
				Slot:    h.slot,
				Attempt: crashes,
				Backoff: backoff,
				Waited:  time.Since(lastCrash),
			}
			e.histMu.Lock()
			e.history = append(e.history, rec)
			e.histMu.Unlock()
			e.emitTrace(trace.WorkerRestarted, "", h.slot.String(),
				fmt.Sprintf("worker respawned pid %d (attempt %d, waited %s)", cmd.Process.Pid, crashes, rec.Waited.Round(time.Millisecond)))
			wlog.Infof("respawned pid=%d attempt=%d waited=%s", cmd.Process.Pid, crashes, rec.Waited.Round(time.Millisecond))
		} else {
			e.emitTrace(trace.WorkerStarted, "", h.slot.String(), fmt.Sprintf("worker pid %d", cmd.Process.Pid))
		}
		cmd.Wait()
		lastCrash = time.Now()
		crashes++
		e.retireWorker(h)
		if e.stopped.Load() {
			return
		}
		e.emitTrace(trace.WorkerCrashed, "", h.slot.String(),
			fmt.Sprintf("worker process exited; respawn in %s", e.Backoff(crashes-1)))
		wlog.Warnf("worker process exited; respawn in %s", e.Backoff(crashes-1))
	}
}

// spawnWorker launches one worker process for h's slot: this binary,
// re-executed with the dist environment set.
func (e *Engine) spawnWorker(h *workerHandle) (*exec.Cmd, error) {
	exe := os.Args[0]
	cmd := exec.Command(exe)
	node, port := slotEnvString(h.slot)
	cmd.Env = append(os.Environ(),
		EnvControl+"="+e.ctrlAddr,
		EnvSlotNode+"="+node,
		EnvSlotPort+"="+port,
	)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}
