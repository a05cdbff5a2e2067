"""Exception hierarchy.

Two families matter for the CLI exit status: input/validation problems
(exit 2) and scope problems, i.e. requests the tool refuses on principle,
such as enumerating an infinite resonance set without a cap (exit 3).
"""


class NFKitError(Exception):
    code = "error"
    exit_code = 1


class InputError(NFKitError):
    code = "input-error"
    exit_code = 2


class ScopeError(NFKitError):
    code = "scope-error"
    exit_code = 3


class DimensionMismatch(InputError):
    code = "dimension-mismatch"


class RankMismatch(InputError):
    code = "rank-mismatch"


class NilpotentViolatesCommutation(InputError):
    code = "nilpotent-violates-commutation"


class GcdNotOne(InputError):
    code = "gcd-not-one"


class ZeroEigenvalue(InputError):
    code = "zero-eigenvalue"


class LinearPartMismatch(InputError):
    code = "linear-part-mismatch"


class NotPDNF(InputError):
    code = "not-pdnf"


class NotFreeModuleShape(InputError):
    code = "not-free-module-shape"


class RewriteFailure(InputError):
    code = "rewrite-failure"


class WrongShape(InputError):
    code = "wrong-shape"


class NotNormalizerPair(InputError):
    code = "not-normalizer-pair"


class ZeroSemisimplePart(InputError):
    code = "zero-semisimple-part"


class InfiniteResonance(ScopeError):
    code = "infinite-resonance"


class InfiniteResonanceWithoutCap(ScopeError):
    code = "infinite-resonance-without-cap"


class SearchCapReached(ScopeError):
    """A bounded completion search hit its degree cap before finishing."""

    code = "search-cap-reached"

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

