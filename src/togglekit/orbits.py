"""Orbit iteration with first-return detection.

Works for any invertible step: order ideals, rational arrays, tableaux.
States must be hashable and comparable for equality.
"""


class OrbitError(RuntimeError):
    'Orbit did not close up: cap exceeded, or the map was not invertible.'


class OrbitRecord(tuple):
    'A full forward orbit, as the tuple of its states: [0] is the start.'

    __slots__ = ()

    @property
    def period(self):
        return len(self)

    def __repr__(self):
        return f"OrbitRecord(period={self.period})"


def orbit(step, start, cap=1000):
    """Iterate step until the start state recurs.

    Raises OrbitError after cap steps, or if the trajectory re-enters
    itself somewhere other than the start (diagnosing a non-invertible
    step or an unhashable-state bug rather than looping forever).
    """
    positions = {start: 0}  # each state once, in the order walked
    current = step(start)
    while current != start:
        if current in positions:
            raise OrbitError(
                f"trajectory re-entered state #{positions[current]} after "
                f"{len(positions)} steps without returning to the start; "
                "the step map is not invertible on this input"
            )
        if len(positions) >= cap:
            raise OrbitError(f"no return to start within cap={cap} steps")
        positions[current] = len(positions)
        current = step(current)
    return OrbitRecord(positions)


def orbit_partition(step, states, cap=1000):
    'Split a finite invariant set into orbits; returns a list of OrbitRecords.'
    seen = set()
    out = []
    for s in states:
        if s in seen:
            continue
        rec = orbit(step, s, cap=cap)
        seen.update(rec)
        out.append(rec)
    return out
