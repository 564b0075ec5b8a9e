"""Set-up probe: import the package, build one workload, print ``ready``.

    python3 bench/setup_probe.py WORKLOAD SEED

``run.py`` times a fresh interpreter running this file until the ``ready``
line arrives; that time is the workload's ``setup_s``.
"""

import sys

from run import use_checkout_src


def main(name, seed):
    use_checkout_src()
    import workloads

    workloads.setup(name, int(seed))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
