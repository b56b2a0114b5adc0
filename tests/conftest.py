import pytest

from sosfield.certs import parse_field
from sosfield.extension import GlobalBase
from sosfield.split import find_split_places

# Q, F_q(X) and Q(X) fields, each with a completely split nonreal place
SPLIT_FIELDS = [
    ("Q", "T^2-2"),
    ("Q", "T^3-2"),
    ("Q", "T^6-T^2+3*T+5"),
    ("Fq:7", "T^5-X"),
    ("Fq:101", "T^3-X"),
    ("QX", "T^2-5*X"),
]


@pytest.fixture(scope="session", params=SPLIT_FIELDS, ids=" ".join)
def split_field(request):
    """(K, record): a field of SPLIT_FIELDS and its first split nonreal place."""
    K = parse_field(GlobalBase.from_label(request.param[0]), request.param[1])
    return K, find_split_places(K, require_nonreal=True).records[0]
