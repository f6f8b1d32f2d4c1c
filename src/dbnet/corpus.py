"""The web-shop net, at any number of users and products.

Customers log in, put products in a cart (reserving warehouse stock),
may acquire a bonus — acquiring a second one violates the key
constraint and rolls back into a renegotiation loop — then check out
and finish the order with or without spending the bonus.  It touches
every feature at once: views, fresh cart identifiers, external
bindings, add/del actions, key/foreign-key/domain constraints and
rollback routing.

The net is one ``.dbn`` text whose ``init`` block is written for the
requested size; at one user and one product it is, byte for byte,
``corpus/shopping-cart.dbn``.  The ``# template:`` marker on its first
line lets the command line rebuild that file at other sizes.  The
single-feature nets exist only as their files in ``corpus/``.
"""

from __future__ import annotations

from .dsl import parse_model
from .model import DbNet

__all__ = ["build_shopping_cart", "shop_text"]

# One login session is available, so a single customer shops per run;
# which one is the first choice point.  Two bonus kinds are sampled so a
# second acquisition really collides on the key (adding the same row
# twice is a no-op in a set).  ``{facts}`` stands for the sized rows.
_SHOP = '''# template: shopping-cart
dbnet "shopping-cart";

type int = int;
type string = string;
type real = real;
type addr = string;

relation User(ID: int, card: string);
relation WithBonus(UID: int, btype: string);
relation Product(PName: string);
relation InWarehouse(PID: int, pname: string, cost: real);
constraint key User(ID);
constraint key WithBonus(UID);
constraint key Product(PName);
constraint key InWarehouse(PID);
constraint foreign WithBonus(UID) -> User(ID);
constraint foreign InWarehouse(pname) -> Product(PName);
constraint domain WithBonus.btype in {"15eur", "50%", "extra_item"};

query Q_users(uid: int) := User(uid, c);
query Q_products(pid: int, n: string, c: real) := Product(n) & InWarehouse(pid, n, c) & c != null;
query Q_wbonus(uid: int, bt: string) := WithBonus(uid, bt);

action addb(uid: int, bt: string) { add WithBonus(uid, bt); }
action change(uid: int, o: string, n2: string) { del WithBonus(uid, o); add WithBonus(uid, n2); }
action reserve(pid: int, n: string, c: real) { del InWarehouse(pid, n, c); }
action apply(uid: int, bt: string) { del WithBonus(uid, bt); }

place session(int);
place logged(int, int);
place cart(int, int);
place rebonus(int, int);
place checked(int, int);
place reserved(int, int);
place done(int, int, addr);
view Users := Q_users;
view Products := Q_products;
view BonusHolders := Q_wbonus;

transition LogIn {
  in session(s);
  read Users(uid);
  out logged(uid, ~cid);
}

transition AddProduct {
  in logged(uid, cid);
  read Products(pid, n, c);
  act reserve(pid, n, c);
  out logged(uid, cid);
  out cart(cid, pid);
}

transition AcquireBonus {
  in logged(uid, cid);
  act addb(uid, bt);
  out logged(uid, cid);
  rollback rebonus(uid, cid);
}

transition KeepBonus {
  in rebonus(uid, cid);
  out logged(uid, cid);
}

transition ChangeBonus {
  in rebonus(uid, cid);
  read BonusHolders(uid, o);
  act change(uid, o, n2);
  out logged(uid, cid);
}

transition CheckOut {
  in logged(uid, cid);
  out checked(uid, cid);
}

transition PrepareOrder {
  in cart(cid, pid);
  in checked(uid, cid);
  out checked(uid, cid);
  out reserved(cid, pid);
}

transition FinishOrder {
  in checked(uid, cid);
  out done(uid, cid, dest);
}

transition FinishOrderWithBonus {
  in checked(uid, cid);
  read BonusHolders(uid, bt);
  act apply(uid, bt);
  out done(uid, cid, dest);
}

init {
{facts}  token session(0);
}

policy {
  fresh recycling;
  sample addr {"a1"};
  sample string {"15eur", "50%"};
}
'''


def shop_text(users: int = 1, products: int = 1) -> str:
    """The shop's ``.dbn`` text with ``users`` registered customers and
    ``products`` warehouse rows."""
    if users < 1 or products < 1:
        raise ValueError("need at least one user and one product")
    ks = range(1, products + 1)
    facts = [f'  fact User({u}, "card{u}");\n' for u in range(1, users + 1)]
    facts += [f'  fact Product("p{k}");\n' for k in ks]
    facts += [f'  fact InWarehouse({100 + k}, "p{k}", {k}.5);\n' for k in ks]
    return _SHOP.replace("{facts}", "".join(facts))


def build_shopping_cart(users: int = 1, products: int = 1) -> DbNet:
    """The web-shop net, with ``users`` registered customers and
    ``products`` warehouse rows."""
    return parse_model(shop_text(users, products)).model
