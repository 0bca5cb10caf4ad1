(** Adversary simulator: replay leakage-ledger traces as the
    honest-but-curious server, score achieved candidate sets against a
    declared budget, and buy back indistinguishability with priced
    mitigations; plus the paper's attacks on the stored data.  See
    docs/SECURITY.md, "Adversary model & enforced budgets". *)

module Static = Static
module Passes = Passes
module Budget = Budget
module Mitigate = Mitigate
