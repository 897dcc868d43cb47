"""``python -m repro pool`` — operate a standing rank pool from the shell.

Verbs::

    python -m repro pool up --rendezvous file:///tmp/rdv --ranks 4
        Start detached agent processes joined to the rendezvous (they
        outlive this command) and wait until their cards appear.
    python -m repro pool status --rendezvous file:///tmp/rdv
        List published agents and ping each one's control port.
    python -m repro pool submit --rendezvous file:///tmp/rdv --ranks 4
        Form the mesh, run one job, verify bitwise against run_serial.
    python -m repro pool down --rendezvous file:///tmp/rdv
        Shut down every published agent.
    python -m repro pool agent --rendezvous file:///tmp/rdv
        Run one agent in the foreground (what ``up`` launches detached).
    python -m repro pool coordinator --port 29400
        Run the tiny TCP rendezvous coordinator in the foreground.

Exit-code contract (what CI scripts key on): **0** success, **1**
operational failure — job failed, a rank is dead, or the result did not
match ``run_serial`` bitwise — and **2** bad arguments or configuration
(argparse errors included).  Never a traceback for a user mistake.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import PoolError, ReproError

__all__ = ["pool_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro pool",
        description="operate a standing rank pool",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--rendezvous",
            required=True,
            help="rendezvous URL (file:///dir or tcp://host:port)",
        )
        p.add_argument(
            "--host",
            default="127.0.0.1",
            help="host/interface for agent control + data ports",
        )

    up = sub.add_parser("up", help="start detached agents")
    common(up)
    up.add_argument("--ranks", type=int, default=4, help="agents to start")
    up.add_argument(
        "--timeout", type=float, default=30.0, help="seconds to wait for cards"
    )

    status = sub.add_parser("status", help="list and ping published agents")
    common(status)

    submit = sub.add_parser("submit", help="run one job on the pool")
    common(submit)
    submit.add_argument("--ranks", type=int, default=4, help="pool size to use")
    submit.add_argument("--n", type=int, default=32, help="global grid edge")
    submit.add_argument("--k", type=int, default=8, help="sub-domain edge")
    submit.add_argument("--sigma", type=float, default=2.0, help="kernel width")
    submit.add_argument(
        "--policy", default="flat:2", help="sampling policy (flat:R / banded:...)"
    )
    submit.add_argument("--seed", type=int, default=0, help="input field seed")
    submit.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="submissions of the same job (>1 exercises the warm path)",
    )
    submit.add_argument(
        "--timeout", type=float, default=30.0, help="seconds to wait for agents"
    )
    submit.add_argument(
        "--no-check",
        action="store_true",
        help="skip the bitwise comparison against run_serial",
    )

    down = sub.add_parser("down", help="shut down every published agent")
    common(down)

    agent = sub.add_parser("agent", help="run one agent in the foreground")
    common(agent)

    coord = sub.add_parser(
        "coordinator", help="run the TCP rendezvous coordinator"
    )
    coord.add_argument("--host", default="127.0.0.1", help="bind host")
    coord.add_argument("--port", type=int, default=0, help="bind port (0 = any)")
    return parser


def _up(args: argparse.Namespace) -> int:
    from repro.pool.agent import start_detached_agents
    from repro.pool.rendezvous import parse_rendezvous, wait_for_cards

    rendezvous = parse_rendezvous(args.rendezvous)
    existing = tuple(c.agent_id for c in rendezvous.cards())
    # detached: the agents must outlive this command
    start_detached_agents(args.rendezvous, args.ranks, host=args.host)
    cards = wait_for_cards(
        rendezvous, args.ranks, timeout_s=args.timeout, exclude=existing
    )
    for card in cards:
        print(f"agent {card.agent_id} pid {card.pid} at {card.host}:{card.port}")
    print(f"{len(cards)} agents up at {rendezvous.describe()}")
    return 0


def _ask(card, op: str) -> tuple:
    """Dial ``card``'s control port, send ``op``, return the reply.

    ``OSError``: nobody listens there; :class:`PoolError`: no reply
    within 5 s.
    """
    from multiprocessing.connection import Client

    from repro.dist.runtime import control_reply
    from repro.util.clock import MonotonicClock

    conn = Client((card.host, card.port), family="AF_INET")
    try:
        conn.send((op,))
        return control_reply(
            conn, f"agent {card.agent_id}", 5.0, MonotonicClock()
        )
    finally:
        conn.close()


def _status(args: argparse.Namespace) -> int:
    from repro.pool.rendezvous import parse_rendezvous

    rendezvous = parse_rendezvous(args.rendezvous)
    cards = rendezvous.cards()
    if not cards:
        print(f"no agents published at {rendezvous.describe()}")
        return 1
    dead = 0
    for card in cards:
        state = "alive"
        detail = ""
        try:
            _pong, _id, generation, rank = _ask(card, "ping")
            detail = f" generation={generation} rank={rank}"
        except PoolError:
            state, dead = "silent", dead + 1
        except OSError:
            state, dead = "dead", dead + 1
        print(
            f"agent {card.agent_id} pid {card.pid} at "
            f"{card.host}:{card.port}: {state}{detail}"
        )
    return 1 if dead else 0


def _submit(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.dist.worker import DistConfig, build_pipeline, composite_field
    from repro.pool.pool import RankPool

    config = DistConfig(
        n=args.n,
        k=args.k,
        sigma=args.sigma,
        policy=args.policy,
        num_ranks=args.ranks,
        transport="tcp",
        seed=args.seed,
    )
    field = composite_field(config.n, config.seed)
    pool = RankPool(args.rendezvous)
    pool.connect(args.ranks, timeout_s=args.timeout)
    failed = False
    try:
        for attempt in range(max(1, args.repeats)):
            report = pool.submit(config, field=field)
            line = (
                f"job {report.job_id} generation {report.generation} "
                f"{'warm' if report.warm else 'cold'}: "
                f"wire/model {report.wire_over_model:.4f}, "
                f"exchange values {report.predicted_value_bytes} B "
                f"(Eq 6 allgather {report.eq6_value_bytes} B), "
                f"input {report.input_wire_bytes} B, "
                f"control {report.control_in_bytes} B, "
                f"back {report.control_out_bytes} B, "
                f"plan misses {report.plan_misses}, "
                f"{report.elapsed_s:.3f}s"
            )
            if report.failed_ranks:
                line += f", recovered from ranks {report.failed_ranks}"
            if not args.no_check:
                serial = build_pipeline(config).run_serial(field)
                bitwise = bool(np.array_equal(report.approx, serial.approx))
                line += f", bitwise={bitwise}"
                failed = failed or not bitwise
            print(line)
    finally:
        pool.disconnect()  # agents stay warm for the next command
    return 1 if failed else 0


def _down(args: argparse.Namespace) -> int:
    from repro.pool.rendezvous import parse_rendezvous

    rendezvous = parse_rendezvous(args.rendezvous)
    cards = rendezvous.cards()
    stopped = 0
    for card in cards:
        try:
            _ask(card, "shutdown")
        except PoolError:
            pass  # it was told; not waiting longer for its "bye"
        except OSError:
            # already dead; clear the stale card so the next `up` is clean
            rendezvous.withdraw(card.agent_id)
            continue
        stopped += 1
    print(f"stopped {stopped} of {len(cards)} agents at {rendezvous.describe()}")
    return 0


def _agent(args: argparse.Namespace) -> int:
    from repro.pool.agent import agent_main

    return agent_main(args.rendezvous, host=args.host)


def _coordinator(args: argparse.Namespace) -> int:
    import threading

    from repro.pool.rendezvous import CoordinatorServer

    server = CoordinatorServer(host=args.host, port=args.port).start()
    print(f"rendezvous coordinator at {server.url()}", flush=True)
    try:
        # serve until interrupted; the accept loop runs on its own thread
        threading.Event().wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
    return 0


def pool_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro pool ...``."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "up": _up,
        "status": _status,
        "submit": _submit,
        "down": _down,
        "agent": _agent,
        "coordinator": _coordinator,
    }
    try:
        return handlers[args.verb](args)
    except PoolError as exc:
        # operational failure (agents missing, job failed): exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        # bad arguments / configuration: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
