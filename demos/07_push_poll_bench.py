"""
Push vs poll: why moving the trigger to the client wins
=======================================================

Same stack both times -- emulated node streaming over loopback TCP, gateway
persisting and triggering, inference server answering.  In push mode every
frame triggers an immediate request; in the legacy poll mode, which only the
bench implements, the gateway's sender thread is a periodic scan that answers
the queued triggers through the server's model, so each one waits for the
next scan (mean ~ interval/2).

Scaled down for demo speed: 40 frames, 1 s poll interval.  The full-size
comparison (200 frames, 5 s interval) runs in the acceptance suite and via
``shmlink bench-latency``.
"""

from shmlink.bench import run_bench

push = run_bench("push", frames=40, tick=0.01, seed=0)
print(f"push: mean {push['mean'] * 1e3:7.2f} ms   p95 {push['p95'] * 1e3:7.2f} ms   "
      f"max {push['max'] * 1e3:7.2f} ms")

poll = run_bench("poll", frames=40, tick=0.05, poll_interval=1.0, seed=0)
print(f"poll: mean {poll['mean'] * 1e3:7.2f} ms   p95 {poll['p95'] * 1e3:7.2f} ms   "
      f"max {poll['max'] * 1e3:7.2f} ms   (interval 1 s)")

print(f"\nmean poll / mean push = {poll['mean'] / push['mean']:.0f}x")
print("poll latency is dominated by the scan interval; push rides the wire alone")
