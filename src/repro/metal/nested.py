"""Nested Metal (paper §3.5, "Nested Metal").

"Metal should allow VMMs, OSes and applications to define their own
mroutines ... mroutines belonging to a layer can be swapped during a
context switch.  Interrupts propagate from lower to higher layers so that
VMMs and OS kernels can decide which VM or application the interrupt
belongs to.  Instruction interception proceeds in reverse, with higher
layers intercepting the instruction first ... The intercept propagates
downward through layers that intercept the same instruction, which only
occurs when the higher layer's intercept handling mroutine reuses the
instruction."

This module is the future-work prototype: a :class:`NestedMetalUnit` that
layers delivery and interception tables on top of one shared MRAM image.

Semantics implemented:

* **Layer stack** — layer 0 is the lowest (VMM); higher indices sit above
  (guest OS, application).  Layers can be pushed, popped, and *swapped*
  (the context-switch operation the paper calls out).
* **Interception, top-down** — the highest layer with a matching rule
  handles the instruction first.  If its handler *replays* the instruction
  (exits with m31 == m30), the intercept propagates to the next matching
  layer below; layers below the last-handling layer see the replay, the
  handling layer does not re-intercept its own replay.
* **Interrupts, bottom-up** — delivery starts at the lowest layer that
  routes the cause.  A handler may propagate the interrupt one layer up by
  executing ``mraise`` with the same cause.
* **Exceptions** — delivered to the highest layer routing the cause (the
  layer closest to the faulting code), matching the custom-page-table
  example: a guest OS handles its own page faults, the VMM handles what
  the guest does not route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NestedMetalError
from repro.cpu.exceptions import Cause, is_interrupt
from repro.metal.delivery import DeliveryTable
from repro.metal.intercept import NO_RULES, InterceptTable
from repro.metal.unit import MetalUnit


@dataclass
class MetalLayer:
    """One software layer's Metal configuration."""

    name: str
    delivery: DeliveryTable = field(default_factory=DeliveryTable)
    intercept: InterceptTable = field(default_factory=InterceptTable)


class _LayeredInterceptView:
    """Composite interception table the CPU engines consult.

    Implements the top-down match with downward replay propagation: when a
    layer's handler replays the intercepted instruction, the same PC's
    next match starts strictly below that layer.
    """

    def __init__(self, unit: "NestedMetalUnit"):
        self._unit = unit
        self.hits = 0

    @property
    def empty(self) -> bool:
        return all(layer.intercept.empty for layer in self._unit.layers)

    @property
    def signature(self):
        """:data:`NO_RULES` while no layer holds a rule, else None: a
        match depends on the replay state, so no translation can decide
        it ahead of time (normal-mode code runs on ``step()``)."""
        return NO_RULES if self.empty else None

    def match(self, word: int):
        unit = self._unit
        ceiling = len(unit.layers)
        if unit.replay_pc is not None and unit.replay_below is not None:
            ceiling = unit.replay_below
        for idx in range(ceiling - 1, -1, -1):
            entry = unit.layers[idx].intercept.match(word)
            if entry is not None:
                unit.pending_intercept_layer = idx
                self.hits += 1
                return entry
        return None


class NestedMetalUnit(MetalUnit):
    """MetalUnit with layered delivery and interception."""

    def __init__(self, image, layer_names=("vmm",)):
        super().__init__(image)
        self.layers = [MetalLayer(name) for name in layer_names]
        # Replace the flat tables with layered views.  The flat
        # ``delivery`` stays as the layer-0 table for compatibility.
        self.intercept = _LayeredInterceptView(self)
        self.delivery = self.layers[0].delivery
        # Replay-propagation state.
        self.replay_pc = None
        self.replay_below = None
        self.pending_intercept_layer = None
        # Which layer is currently handling a delivery (for mraise).
        self.active_layer = None
        self.active_cause = None

    # ------------------------------------------------------------------
    # layer management (context-switch operations)
    # ------------------------------------------------------------------
    def layer_index(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise NestedMetalError(f"no layer named {name!r}")

    def push_layer(self, name: str) -> MetalLayer:
        """Add a new highest layer (e.g. an application above the OS)."""
        if any(layer.name == name for layer in self.layers):
            raise NestedMetalError(f"layer {name!r} already exists")
        layer = MetalLayer(name)
        self.layers.append(layer)
        return layer

    def pop_layer(self) -> MetalLayer:
        """Remove the highest layer."""
        if len(self.layers) == 1:
            raise NestedMetalError("cannot pop the base layer")
        return self.layers.pop()

    def swap_layer(self, name: str, layer: MetalLayer) -> MetalLayer:
        """Swap a layer's tables in place (the paper's context switch)."""
        idx = self.layer_index(name)
        old = self.layers[idx]
        layer.name = name
        self.layers[idx] = layer
        return old

    # ------------------------------------------------------------------
    # delivery overrides
    # ------------------------------------------------------------------
    def _route_layer(self, cause: int):
        """Pick the handling layer: interrupts bottom-up, exceptions
        top-down."""
        indices = (
            range(len(self.layers))
            if is_interrupt(cause)
            else range(len(self.layers) - 1, -1, -1)
        )
        for idx in indices:
            if self.layers[idx].delivery.handler_for(cause) is not None:
                return idx
        return None

    def deliver(self, cause, epc, info=0, entry=None, operands=None):
        if entry is not None:
            # Intercept hit: the matching layer was recorded by the view.
            self.active_layer = self.pending_intercept_layer
            self.active_cause = int(Cause.INTERCEPT)
            self._intercept_epc = epc
            return super().deliver(cause, epc, info, entry=entry,
                                   operands=operands)
        idx = self._route_layer(cause)
        if idx is None:
            raise NestedMetalError(f"no layer routes cause {cause}")
        self.active_layer = idx
        self.active_cause = int(cause)
        handler = self.layers[idx].delivery.handler_for(cause)
        return super().deliver(cause, epc, info, entry=handler,
                               operands=operands)

    def redispatch(self, cause: int) -> int:
        """``mraise`` inside a layered handler.

        Same cause during an interrupt delivery = propagate one layer *up*
        (paper: "Interrupts propagate from lower to higher layers").
        Anything else resolves against the layer stack from the top.
        """
        cause = int(cause)
        if (
            self.active_layer is not None
            and cause == self.active_cause
            and is_interrupt(cause)
        ):
            for idx in range(self.active_layer + 1, len(self.layers)):
                handler = self.layers[idx].delivery.handler_for(cause)
                if handler is not None:
                    self.active_layer = idx
                    self.mregs.write(28, cause)
                    self.stats.note_delivery(cause)
                    return self.image.entry_offset(handler)
            raise NestedMetalError(
                f"interrupt cause {cause} propagated past the top layer"
            )
        idx = self._route_layer(cause)
        if idx is None:
            raise NestedMetalError(f"no layer routes cause {cause}")
        self.active_layer = idx
        handler = self.layers[idx].delivery.handler_for(cause)
        self.mregs.write(28, cause)
        self.stats.note_delivery(cause)
        return self.image.entry_offset(handler)

    def exit_metal(self) -> int:
        """Track replay exits for downward intercept propagation."""
        resume = super().exit_metal()
        if self.active_cause == int(Cause.INTERCEPT):
            epc = getattr(self, "_intercept_epc", None)
            if epc is not None and resume == epc:
                # Handler replays the intercepted instruction: the next
                # match at this PC starts below the handling layer.
                self.replay_pc = epc
                self.replay_below = self.active_layer
            else:
                self.replay_pc = None
                self.replay_below = None
        self.active_layer = None
        self.active_cause = None
        return resume

    def note_fetch(self, pc: int) -> None:
        """Clear replay state once execution moves past the replayed PC."""
        if self.replay_pc is not None and pc != self.replay_pc:
            self.replay_pc = None
            self.replay_below = None
