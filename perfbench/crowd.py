"""The benchmark crowd, generated from the seed argument.

``planted-100k`` follows the planted model of the repository's earlier
performance scenarios: every item has a true option, every user an ability
drawn from U[0.4, 0.95], and a user answers correctly with probability equal
to their ability and otherwise picks one of the wrong options uniformly.
Each user answers exactly ``per_user`` distinct items.  The planted
abilities are kept to score the served rankings.

Setup loads the base answers.  The rest is the append stream: a seeded
random arrival order cut into fixed-size batches.  Every ``(user, item)``
key occurs once in the whole crowd, so appends never conflict with answers
already loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

Triples = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CrowdSpec:
    name: str
    num_users: int
    num_items: int
    num_options: int
    per_user: int
    append_answers: int
    batch: int


PLANTED_100K = CrowdSpec("planted-100k", 100_000, 2_000, 4, 6, 60_000, 500)
#: The self-test scale: same model, small enough to run in seconds.
TOY = CrowdSpec("toy", 5_000, 300, 4, 6, 1_800, 60)
SCALES = {"full": PLANTED_100K, "toy": TOY}


@dataclass
class Crowd:
    spec: CrowdSpec
    ability: np.ndarray
    base: Triples
    batches: List[Triples]

    def triples_after(self, num_batches: int) -> Triples:
        """All answers the server holds after ``num_batches`` appends."""
        parts = [self.base] + self.batches[:num_batches]
        return tuple(np.concatenate([p[axis] for p in parts]) for axis in range(3))


def generate(spec: CrowdSpec, seed: int) -> Crowd:
    rng = np.random.default_rng(seed)
    m, n, k, per = spec.num_users, spec.num_items, spec.num_options, spec.per_user
    items = rng.integers(0, n, size=(m, per))
    while True:  # redraw the rows that picked an item twice
        ordered = np.sort(items, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeats.size == 0:
            break
        items[repeats] = rng.integers(0, n, size=(repeats.size, per))
    items = np.sort(items, axis=1).ravel()
    users = np.repeat(np.arange(m, dtype=np.int64), per)
    truth = rng.integers(0, k, size=n)
    ability = rng.uniform(0.4, 0.95, size=m)
    correct = rng.random(users.size) < ability[users]
    wrong = (truth[items] + rng.integers(1, k, size=users.size)) % k
    options = np.where(correct, truth[items], wrong)

    arrival = rng.permutation(users.size)
    base = np.sort(arrival[spec.append_answers:])
    stream = arrival[:spec.append_answers]
    batches = [
        (users[chunk], items[chunk], options[chunk])
        for chunk in np.split(stream, spec.append_answers // spec.batch)
    ]
    return Crowd(spec, ability, (users[base], items[base], options[base]), batches)
