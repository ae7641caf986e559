package exchange

import "repro/internal/model"

// Interface compliance.
var (
	_ model.Exchange = (*Min)(nil)
	_ model.Exchange = (*Basic)(nil)
	_ model.Exchange = (*Report)(nil)
	_ model.Exchange = (*FIP)(nil)

	// Every built-in exchange broadcasts into caller-owned buffers.
	_ model.BufferedExchange = (*Min)(nil)
	_ model.BufferedExchange = (*Basic)(nil)
	_ model.BufferedExchange = (*Report)(nil)
	_ model.BufferedExchange = (*FIP)(nil)

	_ model.State = MinState{}
	_ model.State = BasicState{}
	_ model.State = ReportState{}
	_ model.State = (*FIPState)(nil)

	// The full-information exchange's keys embed agent identities, so it
	// opts into the symmetry rewrite the quotiented model checker needs.
	_ model.KeyPermuter = (*FIP)(nil)

	_ model.Message = MinMsg{}
	_ model.Message = BasicMsg{}
	_ model.Message = ReportMsg{}
	_ model.Message = FIPMsg{}
)
