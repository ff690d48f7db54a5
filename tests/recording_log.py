"""A message log that keeps every message, for tests that compare the
control plane's messages one by one.

``ControlMessageLog`` keeps per-component tallies only. ``RecordingLog``
also appends each ``log`` call's arguments, in call order, and then
tallies them as the base class does. A ``ScionNetwork`` builds its path
servers in ``run()``, so ``network.log = RecordingLog()`` before
``run()`` records every message the network sends.
"""

from typing import List, NamedTuple, Optional

from repro.control import Component, ControlMessageLog, Scope


class Message(NamedTuple):
    component: Component
    scope: Scope
    size: int
    time: float
    sender: int
    receiver: int
    subject: Optional[int] = None


class RecordingLog(ControlMessageLog):
    def __init__(self) -> None:
        super().__init__()
        self.messages: List[Message] = []

    def log(
        self,
        component: Component,
        scope: Scope,
        size: int,
        time: float,
        sender: int,
        receiver: int,
        subject: Optional[int] = None,
    ) -> None:
        self.messages.append(
            Message(component, scope, size, time, sender, receiver, subject)
        )
        super().log(component, scope, size, time, sender, receiver, subject)

    def of(self, component: Component) -> List[Message]:
        return [m for m in self.messages if m.component is component]
