package model

// Message is a single protocol message. The concrete type depends on the
// information-exchange protocol: a bare decide value for Emin, a small enum
// for Ebasic, a communication graph for Efip. A nil Message is the paper's
// ⊥ ("no message sent").
//
// Every EBA context requires that a recipient can tell from the message
// whether the sender is deciding 0, deciding 1, or neither (the disjoint
// message classes M0, M1, M2 of Section 5); Announces exposes exactly that.
type Message interface {
	// Announces returns Zero if the message belongs to class M0 (the sender
	// is deciding 0 this round), One if it belongs to M1, and None for
	// class M2 (any other message).
	Announces() Value

	// Bits is the length of the message's wire encoding in bits, used for
	// the message-complexity experiments (Proposition 8.1).
	Bits() int

	// String renders the message for traces.
	String() string
}

// State is an agent's local state under some information-exchange protocol.
// Every EBA context requires the components exposed here (Section 5):
// a time counter, the initial preference, the decision taken (if any), and
// the "just decided" observation jd. Concrete exchanges add more (Ebasic's
// #1 counter, Efip's communication graph) and expose it on their own state
// types.
type State interface {
	// Time is the state's time component; all agents have Time() == m at
	// time m (the system is synchronous).
	Time() int

	// Init is the agent's initial preference.
	Init() Value

	// Decided is the decision recorded in the state, or None.
	Decided() Value

	// JustDecided is the paper's jd_i: v if the agent learned in the last
	// round that some agent just decided v, None otherwise.
	JustDecided() Value

	// Key returns a canonical fingerprint of the local state. Two local
	// states of the same agent are indistinguishable (in the sense of the
	// knowledge relation ~_i) iff their keys are equal. Keys are only
	// comparable between states produced by the same exchange protocol.
	Key() string
}

// Exchange is an information-exchange protocol E = ⟨E_1,...,E_n⟩
// (Section 3). It fixes the local state space, the initial states, and the
// functions μ (which messages to send, given the current action) and δ
// (how to update the local state after a round).
//
// Implementations must be deterministic and must treat State values as
// immutable: Update returns a fresh state and never mutates its argument.
type Exchange interface {
	// Name identifies the exchange protocol (e.g. "Emin").
	Name() string

	// N is the number of agents.
	N() int

	// Initial returns agent i's initial local state given its preference.
	Initial(i AgentID, init Value) State

	// Messages implements μ_i: the messages agent i sends this round given
	// its state s and the action a it performs this round. The result has
	// length N(); entry j is the message to agent j, nil meaning ⊥.
	Messages(i AgentID, s State, a Action) []Message

	// Update implements δ_i: the state after a round in which agent i
	// performed action a and received the given messages (entry j is the
	// message received from agent j, nil meaning ⊥). The new state's Time
	// is s.Time()+1.
	Update(i AgentID, s State, a Action, received []Message) State
}

// BufferedExchange is the opt-in allocation-saving extension of
// Exchange: μ writes into a caller-owned slice instead of allocating one.
// Exchanges that do not implement it keep working unchanged through the
// plain Messages; the engine type-asserts and falls back.
//
// MessagesInto is contracted to produce exactly the messages Messages
// would. The engine's trace-equivalence tests enforce this for every
// registered exchange.
type BufferedExchange interface {
	Exchange

	// MessagesInto is μ_i writing into out, which has length N(): entry j
	// is set to the message for agent j (nil meaning ⊥ — implementations
	// must overwrite every entry, stale values included). It returns out.
	MessagesInto(i AgentID, s State, a Action, out []Message) []Message
}

// KeyPermuter is the opt-in symmetry extension of Exchange: it rewrites
// an interned state key under an agent relabeling, without access to the
// state itself. PermuteKey(s.Key(), perm) must equal the key of the state
// the same agent's counterpart perm[i] reaches in the permuted run — the
// contract that lets the model checker expand a symmetry-quotiented
// system into the full one by string rewriting alone (the permuted runs
// were never executed, so no State values exist for them).
//
// Exchanges whose keys mention no agent identities (Emin, Ebasic, the
// report exchange) need not implement KeyPermuter: for them the permuted
// key is the key itself, and consumers treat absence as the identity
// rewrite.
type KeyPermuter interface {
	// PermuteKey rewrites key under perm, where perm[i] is the new
	// identity of old agent i (the Pattern.Permute convention). It
	// returns an error if key is not a well-formed key of this exchange.
	PermuteKey(key string, perm []AgentID) (string, error)
}

// ActionProtocol is a (deterministic, memoryless) action protocol
// P = (P_1,...,P_n): a map from local states to actions (Section 3).
// Concrete protocols downcast State to the state type of the exchange they
// are designed for and panic on mismatch; pairing is validated by
// internal/core when assembling a protocol stack.
type ActionProtocol interface {
	// Name identifies the action protocol (e.g. "Pmin").
	Name() string

	// Act returns agent i's action in state s (the paper's P_i(s)).
	Act(i AgentID, s State) Action
}
