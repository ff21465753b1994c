"""Set-up probe for the in-process workloads (run as a child process).

Imports the serving stack in a fresh interpreter, builds the thread
scheduler, answers the stack's own warm-up requests (one tiny problem
of every kind) and prints ``ready``.  The parent times launch → ready.

    python3 perfbench/probe.py SRC_DIR SEED
"""

import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from repro.server import default_warmup_requests
    from repro.service import BatchScheduler, OptimizationService

    scheduler = BatchScheduler(OptimizationService(seed=int(sys.argv[2])), workers=1)
    try:
        for request in default_warmup_requests():
            result = scheduler.submit(request).result()
            if not result.ok:
                print(f"probe request {request.request_id} failed: {result}", flush=True)
                return 1
        print("ready", flush=True)
    finally:
        scheduler.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
