"""The telemetry hub: one registry + tracer, and the process-wide hook.

:class:`Telemetry` bundles a :class:`~repro.telemetry.registry.MetricsRegistry`
with a :class:`~repro.telemetry.trace.Tracer` so a server, a service,
and the engine underneath them can all observe into one place — a
single ``render_text()`` then shows every stage's histogram.

Hot paths that predate the serving stack (notably
:meth:`~repro.stream.engine.StreamEngine.feed_many`) cannot be handed a
hub explicitly without threading a parameter through every layer, so
this module also keeps a process-global *hook*: :func:`install` sets
it, :func:`active` reads it, :func:`uninstall` clears it.  The
uninstrumented cost is one module-attribute load and a ``None`` check
per call.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional


class Telemetry:
    """A metrics registry and a tracer sharing one lifetime.

    Args:
        slow_threshold: Seconds above which a finished trace lands in
            the slow-op log (see :class:`~repro.telemetry.trace.Tracer`).
        max_slow_ops: Bound on retained slow-op entries.
    """

    def __init__(
        self,
        slow_threshold: float = 0.050,
        max_slow_ops: int = 128,
    ):
        # Bound here, not at import: the engine imports this module
        # for :func:`active` and must not load the instruments (nor
        # the ``secrets`` behind trace ids) unless a hub is built.
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.trace import Tracer

        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            slow_threshold=slow_threshold, max_slow_ops=max_slow_ops
        )

    def snapshot(self) -> Dict[str, Any]:
        """Wire-encodable state: ``{"metrics": ..., "traces": ...}``."""
        return {
            "metrics": self.registry.snapshot(),
            "traces": self.tracer.snapshot(),
        }

    def render_text(self) -> str:
        """The Prometheus text exposition of the registry."""
        return self.registry.render_text()


_hook_lock = threading.Lock()
_hook: Optional[Telemetry] = None


def install(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install a process-global telemetry hub and return it.

    Passing ``None`` installs a fresh :class:`Telemetry`.  Replaces any
    previously installed hub.
    """
    global _hook
    with _hook_lock:
        _hook = telemetry if telemetry is not None else Telemetry()
        return _hook


def uninstall() -> None:
    """Remove the process-global hub (instrumentation goes quiet)."""
    global _hook
    with _hook_lock:
        _hook = None


def active() -> Optional[Telemetry]:
    """The installed hub, or ``None``.

    Deliberately lock-free: hot paths call this per batch, and a torn
    read can only return the old or the new hub, both safe targets.
    """
    return _hook
