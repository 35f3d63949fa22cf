import collections

from laplab import perturb

from hardcases import CONTOUR_CASES, CONTOUR_WINDOW, contour_cluster_cases, contour_outcome


def test_root_clusters_at_the_contour():
    # class (a): no hidden miss and no false alarm in any case
    cases = contour_cluster_cases()
    assert len(cases) == CONTOUR_CASES
    outcomes = collections.defaultdict(list)
    for i, case in enumerate(cases):
        k = case.tj.shape[0]
        report = perturb.resonance_couplings(case.tj, perturb.Direction.identity(k), window=CONTOUR_WINDOW)
        outcomes[contour_outcome(case, report)].append(i)
    bad = {name: hit for name, hit in outcomes.items() if name != "correct"}
    assert not bad, bad
