from cubicmw.fixpoint import semi_naive


def successors(old, new, known):
    """Each item n below 5 derives n + 1, with n as the reason."""
    return {n + 1: n for n in new if n < 5}


def test_zero_generations_returns_the_seeds():
    assert semi_naive([0, 2], successors, max_generations=0) == ({0: None, 2: None}, 0)


def test_chain_counts_one_generation_per_link():
    known, generations = semi_naive([0], successors)
    assert known == {0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    assert generations == 5
    assert semi_naive([0], successors, max_generations=2) == ({0: None, 1: 0, 2: 1}, 2)


def test_each_round_gets_the_last_generation_as_new():
    rounds = []

    def sums(old, new, known):
        rounds.append((list(old), list(new)))
        return {a + b: (b, a) for a in new for b in old + new if a + b < 8}

    known, generations = semi_naive([1, 2], sums)
    assert set(known) == set(range(1, 8)) and generations == 2
    assert rounds == [([], [1, 2]), ([1, 2], [3, 4]), ([1, 2, 3, 4], [5, 6, 7])]
    assert (known[1], known[3]) == (None, (1, 2))
