"""Double-entry ledger with a conservation invariant.

Every unit of currency in the system is either in a peer account, in the
bank's float (escrowed / backing circulating tokens), or destroyed by an
explicit burn.  :meth:`Ledger.audit` checks that the sum of all balances
plus the float equals everything ever minted minus everything burned — the
property-based tests hammer this invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class InsufficientFunds(Exception):
    """A debit would overdraw an account."""


@dataclass(slots=True)
class Account:
    """One peer's balance."""

    owner: int
    balance: float = 0.0

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise ValueError(f"negative opening balance {self.balance}")


@dataclass
class Ledger:
    """All accounts plus the bank float, with an audit trail."""

    accounts: Dict[int, Account] = field(default_factory=dict)
    #: Value held by the bank itself (escrow + token backing).
    bank_float: float = 0.0
    minted: float = 0.0
    burned: float = 0.0
    journal: List[Tuple[str, int, float]] = field(default_factory=list)

    def open_account(self, owner: int, opening_balance: float = 0.0) -> Account:
        if owner in self.accounts:
            raise ValueError(f"account {owner} already exists")
        acct = Account(owner=owner, balance=opening_balance)
        self.accounts[owner] = acct
        self.minted += opening_balance
        self.journal.append(("open", owner, opening_balance))
        return acct

    def balance(self, owner: int) -> float:
        return self.accounts[owner].balance

    def mint(self, owner: int, amount: float) -> None:
        """Create new currency in an account (endowments only)."""
        self._check_amount(amount)
        self.accounts[owner].balance += amount
        self.minted += amount
        self.journal.append(("mint", owner, amount))

    def debit_to_float(self, owner: int, amount: float) -> None:
        """Move value from an account into the bank float."""
        self._check_amount(amount)
        acct = self.accounts[owner]
        if acct.balance < amount - 1e-9:
            raise InsufficientFunds(
                f"account {owner}: balance {acct.balance} < {amount}"
            )
        acct.balance -= amount
        self.bank_float += amount
        self.journal.append(("debit", owner, amount))

    def credit_from_float(self, owner: int, amount: float) -> None:
        """Move value from the bank float into an account."""
        self._check_amount(amount)
        if self.bank_float < amount - 1e-9:
            raise InsufficientFunds(
                f"bank float {self.bank_float} < {amount}"
            )
        self.bank_float -= amount
        self.accounts[owner].balance += amount
        self.journal.append(("credit", owner, amount))

    def transfer(self, src: int, dst: int, amount: float) -> None:
        """Direct account-to-account transfer."""
        self.debit_to_float(src, amount)
        self.credit_from_float(dst, amount)

    def burn_from_float(self, amount: float) -> None:
        """Destroy value held in the float (e.g. confiscated fraud escrow)."""
        self._check_amount(amount)
        if self.bank_float < amount - 1e-9:
            raise InsufficientFunds(f"bank float {self.bank_float} < {amount}")
        self.bank_float -= amount
        self.burned += amount
        self.journal.append(("burn", -1, amount))

    def total_in_accounts(self) -> float:
        return sum(a.balance for a in self.accounts.values())

    def audit(self, tolerance: float = 1e-6) -> bool:
        """Conservation: accounts + float == minted - burned."""
        lhs = self.total_in_accounts() + self.bank_float
        rhs = self.minted - self.burned
        return abs(lhs - rhs) <= tolerance

    @staticmethod
    def _check_amount(amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
