"""HMM map matching — the offline substitute for Valhalla [7] that the
paper uses to align GPS points of OD inputs and trajectories with road
segments."""

from .candidates import Candidate, candidates_for_point, candidates_for_trajectory
from .hmm import HMMConfig, HMMMapMatcher, MatchingError
from .batch import MatchRequest, MatchResult, match_many

__all__ = [
    "Candidate", "candidates_for_point", "candidates_for_trajectory",
    "HMMConfig", "HMMMapMatcher", "MatchingError",
    "MatchRequest", "MatchResult", "match_many",
]
